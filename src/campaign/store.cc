#include "campaign/store.h"

#include <utility>

#include "campaign/bytes.h"
#include "util/hash.h"

namespace cmldft::campaign {

namespace {

template <typename Io, typename H>
void StoreHeaderFields(Io& io, H& h) {
  io.U64(h.fingerprint);
  io.U32(h.shard_index);
  io.U32(h.shard_count);
  io.U64(h.total_units);
}

std::string SerializeHeader(const StoreHeader& header) {
  ByteWriter w;
  w.Raw(kStoreMagic);
  w.U32(kStoreVersion);
  StoreHeaderFields(w, header);
  w.U32(util::Crc32(w.bytes().data(), w.bytes().size()));
  return w.Take();
}

}  // namespace

util::StatusOr<StoreWriter> StoreWriter::Create(const std::string& path,
                                                const StoreHeader& header,
                                                int fsync_batch) {
  auto file = util::AppendFile::Open(path, /*create=*/true, /*truncate=*/true);
  if (!file.ok()) return file.status();
  const std::string bytes = SerializeHeader(header);
  StoreWriter writer(std::move(*file), fsync_batch < 1 ? 1 : fsync_batch);
  CMLDFT_RETURN_IF_ERROR(writer.file_.Append(bytes.data(), bytes.size()));
  CMLDFT_RETURN_IF_ERROR(writer.file_.Sync());
  return writer;
}

util::StatusOr<StoreWriter> StoreWriter::OpenAppend(const std::string& path,
                                                    int fsync_batch) {
  auto file = util::AppendFile::Open(path, /*create=*/false, /*truncate=*/false);
  if (!file.ok()) return file.status();
  if (file->size() < kStoreHeaderBytes) {
    return util::Status::FailedPrecondition(
        path + ": not a campaign store (scan before appending)");
  }
  return StoreWriter(std::move(*file), fsync_batch < 1 ? 1 : fsync_batch);
}

util::Status StoreWriter::AppendRecord(std::string_view payload) {
  if (payload.empty() || payload.size() > kMaxRecordBytes) {
    return util::Status::InvalidArgument("campaign record payload size " +
                                         std::to_string(payload.size()) +
                                         " out of range");
  }
  // One contiguous append per record: the kernel applies it as a single
  // write, so a crash between records never interleaves partial frames.
  std::string frame;
  AppendFrame(frame, payload);
  CMLDFT_RETURN_IF_ERROR(file_.Append(frame.data(), frame.size()));
  if (++unsynced_ >= fsync_batch_) {
    CMLDFT_RETURN_IF_ERROR(file_.Sync());
    unsynced_ = 0;
  }
  return util::Status::Ok();
}

util::Status StoreWriter::Close() { return file_.Close(); }

util::StatusOr<ScannedStore> ScanStore(const std::string& path) {
  auto bytes_or = util::ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = *bytes_or;

  if (bytes.size() < kStoreHeaderBytes) {
    return util::Status::ParseError(
        path + ": too short to be a campaign store (" +
        std::to_string(bytes.size()) + " bytes)");
  }
  if (std::string_view(bytes.data(), kStoreMagic.size()) != kStoreMagic) {
    return util::Status::ParseError(path + ": bad magic, not a campaign store");
  }
  ByteReader head(std::string_view(bytes).substr(
      kStoreMagic.size(), kStoreHeaderBytes - kStoreMagic.size()));
  uint32_t version = 0;
  head.U32(version);
  if (version != kStoreVersion) {
    return util::Status::ParseError(
        path + ": unsupported store version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kStoreVersion) + ")");
  }
  ScannedStore scan;
  StoreHeaderFields(head, scan.header);
  uint32_t header_crc = 0;
  head.U32(header_crc);
  if (header_crc != util::Crc32(bytes.data(), kStoreHeaderBytes - 4)) {
    return util::Status::ParseError(path + ": store header CRC mismatch");
  }

  // The valid prefix ends at the first frame that is torn, or whose
  // length or CRC does not check out.
  scan.valid_bytes = kStoreHeaderBytes;
  while (scan.valid_bytes < bytes.size()) {
    auto frame = ParseFrame(std::string_view(bytes).substr(scan.valid_bytes),
                            kMaxRecordBytes);
    if (!frame.ok() || frame->payload.empty()) break;
    scan.records.emplace_back(frame->payload);
    scan.valid_bytes += frame->size;
  }
  scan.torn_tail = scan.valid_bytes != bytes.size();
  return scan;
}

util::Status RepairStore(const std::string& path, const ScannedStore& scan) {
  if (!scan.torn_tail) return util::Status::Ok();
  return util::TruncateFile(path, scan.valid_bytes);
}

// ---------------------------------------------------- streaming merge --

util::StatusOr<StreamingMerge::FoldResult> StreamingMerge::Fold(
    std::string_view record) {
  if (record.empty()) {
    return util::Status::ParseError("empty record payload");
  }
  const auto type = static_cast<RecordType>(static_cast<uint8_t>(record[0]));
  FoldResult result;
  if (type == payload_->singleton_type) {
    if (singleton_.empty()) {
      singleton_ = std::string(record);
      result.new_singleton = true;
    } else if (singleton_ != record) {
      return util::Status::FailedPrecondition(
          "singleton record (reference/suite) differs from the one already "
          "folded: the records were not produced by the same engine and "
          "configuration");
    } else {
      result.duplicate = true;
    }
    return result;
  }
  if (type != payload_->unit_type) {
    const std::string_view owner = PayloadNameOf(type);
    if (owner.empty()) {
      return util::Status::ParseError(
          "unknown campaign record type " +
          std::to_string(static_cast<uint8_t>(type)));
    }
    return ForeignRecords(owner, *payload_);
  }

  // Unit records: decode (validates the payload), dedup by id, tally.
  auto unit = payload_->unit(record, singleton_);
  if (!unit.ok()) return unit.status();
  if (unit->id >= total_units_) {
    return util::Status::FailedPrecondition(
        "record for unit " + std::to_string(unit->id) +
        " outside the universe of " + std::to_string(total_units_));
  }
  result.unit_id = unit->id;
  const uint64_t hash = util::ContentHasher().Str(record).Digest();
  const auto [slot, inserted] = unit_hash_.emplace(unit->id, hash);
  if (!inserted) {
    if (slot->second != hash) {
      return util::Status::FailedPrecondition(
          "unit " + std::to_string(unit->id) +
          " has two different records: they were not produced by the same "
          "engine and configuration");
    }
    result.duplicate = true;
    return result;
  }
  covered_ += unit->covered;
  coverable_ += unit->coverable;
  result.new_unit = true;
  return result;
}

double StreamingMerge::LiveCoverage() const {
  if (coverable_ == 0) return 0.0;
  return static_cast<double>(covered_) / static_cast<double>(coverable_);
}

// ------------------------------------------------------ store session --

util::StatusOr<StoreSession> StoreSession::Create(const PayloadPlan& plan,
                                                  const ShardPlan& shard,
                                                  const std::string& path,
                                                  int fsync_batch) {
  const StoreHeader header{plan.fingerprint(), shard.index, shard.count,
                           plan.total_units()};
  auto writer = StoreWriter::Create(path, header, fsync_batch);
  if (!writer.ok()) return writer.status();
  return StoreSession(path, StreamingMerge(plan.payload(), plan.total_units()),
                      std::move(*writer));
}

util::StatusOr<StoreSession> StoreSession::Resume(const PayloadPlan& plan,
                                                  const ShardPlan& shard,
                                                  const std::string& path,
                                                  int fsync_batch) {
  auto scan = ScanStore(path);
  if (!scan.ok()) return scan.status();
  const StoreHeader& header = scan->header;
  if (header.fingerprint != plan.fingerprint()) {
    return util::Status::FailedPrecondition(
        path + ": store fingerprint does not match the requested " +
        std::string(plan.payload().name) +
        " configuration — it belongs to a different campaign; use a fresh "
        "store path (or delete the stale file)");
  }
  if (header.shard_index != shard.index || header.shard_count != shard.count) {
    return util::Status::FailedPrecondition(
        path + ": store holds shard " +
        ShardPlan{header.shard_index, header.shard_count}.ToString() +
        " but this run requested shard " + shard.ToString());
  }
  if (header.total_units != plan.total_units()) {
    return util::Status::FailedPrecondition(
        path + ": store planned " + std::to_string(header.total_units) +
        " units but the universe now has " +
        std::to_string(plan.total_units()));
  }
  StreamingMerge merge(plan.payload(), plan.total_units());
  for (const std::string& record : scan->records) {
    auto fold = merge.Fold(record);
    if (!fold.ok()) return InStore(path, fold.status());
  }
  CMLDFT_RETURN_IF_ERROR(RepairStore(path, *scan));
  auto writer = StoreWriter::OpenAppend(path, fsync_batch);
  if (!writer.ok()) return writer.status();
  StoreSession session(path, std::move(merge), std::move(*writer));
  session.torn_tail_repaired_ = scan->torn_tail;
  return session;
}

util::StatusOr<StreamingMerge::FoldResult> StoreSession::Append(
    std::string_view record) {
  auto fold = merge_.Fold(record);
  if (!fold.ok()) return InStore(path_, fold.status());
  if (fold->duplicate) return fold;
  if (closed_) {
    return util::Status::Internal(path_ +
                                  ": new record after the store was closed");
  }
  CMLDFT_RETURN_IF_ERROR(writer_.AppendRecord(record));
  return fold;
}

util::Status StoreSession::Close() {
  if (closed_) return util::Status::Ok();
  closed_ = true;
  return writer_.Close();
}

}  // namespace cmldft::campaign
