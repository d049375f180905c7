#include "serving/model_snapshot.h"

#include "common/retry.h"
#include "common/serialize.h"

namespace atnn::serving {

Status SaveModelSnapshot(nn::Module* model, const std::string& path,
                         const std::string& model_tag) {
  BinaryWriter writer;
  writer.WriteU32(kSnapshotFormatVersion);
  writer.WriteString(model_tag);
  nn::SaveParameters(model->Parameters(), &writer);
  return writer.FlushToFile(path);
}

Status LoadModelSnapshot(nn::Module* model, const std::string& path,
                         const std::string& expected_tag) {
  ATNN_ASSIGN_OR_RETURN(BinaryReader reader, BinaryReader::FromFile(path));
  uint32_t version = 0;
  ATNN_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::Corruption("snapshot version " + std::to_string(version) +
                              " unsupported (expected " +
                              std::to_string(kSnapshotFormatVersion) + ")");
  }
  std::string tag;
  ATNN_RETURN_IF_ERROR(reader.ReadString(&tag));
  if (tag != expected_tag) {
    return Status::InvalidArgument("snapshot tag '" + tag +
                                   "' does not match expected '" +
                                   expected_tag + "'");
  }
  return nn::LoadParameters(model->Parameters(), &reader);
}

Status LoadModelSnapshotWithRetry(
    nn::Module* model, const std::string& path,
    const std::string& expected_tag,
    const std::function<void(int64_t)>& sleep_ms) {
  return RetryWithBackoff(
      [&] { return LoadModelSnapshot(model, path, expected_tag); },
      sleep_ms);
}

}  // namespace atnn::serving
