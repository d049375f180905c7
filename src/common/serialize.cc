#include "common/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/crc32.h"

namespace atnn {

namespace {
// Magic header marking ATNN snapshot container files.
constexpr char kMagic[8] = {'A', 'T', 'N', 'N', 'B', 'I', 'N', '1'};
}  // namespace

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::WriteU32(uint32_t value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteU64(uint64_t value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteI64(int64_t value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteF32(float value) { WriteBytes(&value, sizeof(value)); }
void BinaryWriter::WriteF64(double value) { WriteBytes(&value, sizeof(value)); }

void BinaryWriter::WriteString(const std::string& value) {
  WriteU64(value.size());
  WriteBytes(value.data(), value.size());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& values) {
  WriteFloatSpan(std::span<const float>(values.data(), values.size()));
}

void BinaryWriter::WriteFloatSpan(std::span<const float> values) {
  WriteU64(values.size());
  WriteBytes(values.data(), values.size() * sizeof(float));
}

namespace {

// Writes `size` bytes to `fd`, retrying on short writes and EINTR.
bool WriteAll(int fd, const void* data, size_t size) {
  const char* cursor = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t written = ::write(fd, cursor, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    cursor += written;
    size -= static_cast<size_t>(written);
  }
  return true;
}

// Fsyncs the directory containing `path` so the rename itself is durable.
// Best-effort: some filesystems refuse O_RDONLY opens on directories.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

Status BinaryWriter::FlushToFile(const std::string& path) const {
  // Crash-safe protocol: write the full container to a sibling temp file,
  // fsync it, then atomically rename over the destination. A crash at any
  // point leaves either the old file or the new file — never a torn mix —
  // so recovery paths (e.g. the shard supervisor rebuilding from the last
  // snapshot) can trust whatever is at `path`.
  const std::string temp_path = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + temp_path);
  }
  const uint64_t size = buffer_.size();
  const uint32_t crc = Crc32(buffer_.data(), buffer_.size());
  const bool wrote = WriteAll(fd, kMagic, sizeof(kMagic)) &&
                     WriteAll(fd, &size, sizeof(size)) &&
                     WriteAll(fd, buffer_.data(), buffer_.size()) &&
                     WriteAll(fd, &crc, sizeof(crc));
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    ::unlink(temp_path.c_str());
    return Status::IoError("write failed: " + temp_path);
  }
  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    ::unlink(temp_path.c_str());
    return Status::IoError("rename failed: " + temp_path + " -> " + path);
  }
  SyncParentDirectory(path);
  return Status::OK();
}

StatusOr<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file.is_open()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  // The header's length field is attacker/bitrot-controlled; bound it by
  // the actual file size before allocating, so a flipped bit in the length
  // yields Corruption instead of a multi-exabyte allocation.
  const std::streamoff file_size = file.tellg();
  file.seekg(0);
  constexpr size_t kHeaderSize = sizeof(kMagic) + sizeof(uint64_t);
  constexpr size_t kFooterSize = sizeof(uint32_t);  // CRC32 of the payload
  if (file_size < 0 ||
      static_cast<size_t>(file_size) < kHeaderSize + kFooterSize) {
    return Status::Corruption("truncated header in " + path);
  }
  char magic[sizeof(kMagic)];
  file.read(magic, sizeof(magic));
  if (!file.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic in " + path);
  }
  uint64_t size = 0;
  file.read(reinterpret_cast<char*>(&size), sizeof(size));
  if (!file.good()) return Status::Corruption("truncated header in " + path);
  if (size != static_cast<uint64_t>(file_size) - kHeaderSize - kFooterSize) {
    return Status::Corruption("payload length mismatch in " + path);
  }
  std::string buffer(size, '\0');
  file.read(buffer.data(), static_cast<std::streamsize>(size));
  if (static_cast<uint64_t>(file.gcount()) != size) {
    return Status::Corruption("truncated payload in " + path);
  }
  uint32_t stored_crc = 0;
  file.read(reinterpret_cast<char*>(&stored_crc), sizeof(stored_crc));
  if (static_cast<size_t>(file.gcount()) != sizeof(stored_crc)) {
    return Status::Corruption("truncated checksum footer in " + path);
  }
  const uint32_t actual_crc = Crc32(buffer.data(), buffer.size());
  if (stored_crc != actual_crc) {
    return Status::Corruption("checksum mismatch in " + path);
  }
  return BinaryReader(std::move(buffer));
}

Status BinaryReader::ReadBytes(void* out, size_t size) {
  if (size > buffer_.size() - position_) {  // overflow-safe form
    return Status::Corruption("read past end of buffer");
  }
  // memcpy needs valid pointers even for zero bytes, and an empty vector's
  // data() may be null (ReadFloatVector of a zero-length vector).
  if (size > 0) std::memcpy(out, buffer_.data() + position_, size);
  position_ += size;
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* value) { return ReadBytes(value, sizeof(*value)); }
Status BinaryReader::ReadU64(uint64_t* value) { return ReadBytes(value, sizeof(*value)); }
Status BinaryReader::ReadI64(int64_t* value) { return ReadBytes(value, sizeof(*value)); }
Status BinaryReader::ReadF32(float* value) { return ReadBytes(value, sizeof(*value)); }
Status BinaryReader::ReadF64(double* value) { return ReadBytes(value, sizeof(*value)); }

Status BinaryReader::ReadString(std::string* value) {
  uint64_t size = 0;
  ATNN_RETURN_IF_ERROR(ReadU64(&size));
  // Compare against the remaining bytes rather than computing
  // position_ + size: a bit-flipped length near 2^64 would wrap the sum
  // and slip past the check straight into an out-of-bounds read.
  if (size > buffer_.size() - position_) {
    return Status::Corruption("string length exceeds buffer");
  }
  value->assign(buffer_.data() + position_, size);
  position_ += size;
  return Status::OK();
}

Status BinaryReader::ReadFloatVector(std::vector<float>* values) {
  uint64_t size = 0;
  ATNN_RETURN_IF_ERROR(ReadU64(&size));
  // Divide instead of multiplying: size * sizeof(float) overflows for a
  // corrupt length >= 2^62, making the bound check pass and resize() abort.
  if (size > (buffer_.size() - position_) / sizeof(float)) {
    return Status::Corruption("float vector length exceeds buffer");
  }
  values->resize(size);
  return ReadBytes(values->data(), size * sizeof(float));
}

}  // namespace atnn
