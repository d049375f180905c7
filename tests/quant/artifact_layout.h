#ifndef ATNN_TESTS_QUANT_ARTIFACT_LAYOUT_H_
#define ATNN_TESTS_QUANT_ARTIFACT_LAYOUT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/macros.h"
#include "quant/quantized_generator.h"

namespace atnn::quant::wire {

/// One int64 of a serialized artifact: where it sits, what it encodes, its
/// value, and the row count of the embedding table it belongs to (its own
/// value for an int64 outside a table).
struct Int64Slot {
  size_t offset = 0;
  std::string what;
  int64_t value = 0;
  int64_t rows = 0;
};

/// Lists every int64 of a well-formed QuantizedGenerator::SerializeTo
/// payload (format version 1) in wire order, walking the layout SerializeTo
/// writes: the header, each field's table, each dense layer, the cross
/// vectors.
inline std::vector<Int64Slot> Int64Slots(const std::string& payload) {
  size_t at = 0;
  std::vector<Int64Slot> slots;
  const auto take = [&](void* out, size_t bytes) {
    ATNN_CHECK(at + bytes <= payload.size()) << "payload ends at " << at;
    std::memcpy(out, payload.data() + at, bytes);
    at += bytes;
  };
  const auto u32 = [&] {
    uint32_t v = 0;
    take(&v, sizeof(v));
    return v;
  };
  const auto u64 = [&] {
    uint64_t v = 0;
    take(&v, sizeof(v));
    return v;
  };
  const auto i64 = [&](const std::string& what) {
    const size_t offset = at;
    const auto v = static_cast<int64_t>(u64());
    slots.push_back({offset, what, v, v});
    return slots.size() - 1;
  };
  const auto skip_bytes = [&] { at += u64(); };  // strings and code blobs
  const auto skip_floats = [&] { at += u64() * sizeof(float); };

  ATNN_CHECK_EQ(u32(), kQuantFormatVersion);
  const bool int8 = u32() == static_cast<uint32_t>(Precision::kInt8);
  i64("input_dim");
  i64("numeric_cols");
  i64("vector_dim");
  const uint32_t num_fields = u32();
  for (uint32_t f = 0; f < num_fields; ++f) {
    const std::string field = "field " + std::to_string(f) + " ";
    skip_bytes();  // name
    const size_t first = i64(field + "hash_buckets");
    i64(field + "embed_dim");
    const size_t rows = i64(field + "rows");
    i64(field + "cols");
    skip_bytes();  // int8 codes or bf16 values
    if (int8) skip_floats();  // row scales
    for (size_t s = first; s < slots.size(); ++s) {
      slots[s].rows = slots[rows].value;
    }
  }
  const auto dense = [&](const std::string& layer) {
    i64(layer + " in_dim");
    i64(layer + " out_dim");
    u32();          // activation
    skip_floats();  // bias
    at += sizeof(float);  // act_scale
    if (int8) {
      skip_bytes();   // codes
      skip_floats();  // column scales
    } else {
      i64(layer + " bf16 rows");
      i64(layer + " bf16 cols");
      skip_bytes();
    }
  };
  const uint32_t num_deep = u32();
  for (uint32_t d = 0; d < num_deep; ++d) dense("deep " + std::to_string(d));
  dense("head");
  const uint32_t num_cross = u32();
  for (uint32_t c = 0; c < 2 * num_cross; ++c) skip_floats();
  ATNN_CHECK_EQ(at, payload.size());
  return slots;
}

/// `payload` with the int64 at `offset` replaced by `value`.
inline std::string WithInt64(std::string payload, size_t offset,
                             int64_t value) {
  std::memcpy(payload.data() + offset, &value, sizeof(value));
  return payload;
}

}  // namespace atnn::quant::wire

#endif  // ATNN_TESTS_QUANT_ARTIFACT_LAYOUT_H_
