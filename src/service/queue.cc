#include "service/queue.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "report/json.h"

namespace cmldft::service {

namespace {

constexpr std::string_view kSpecPrefix = "campaign_";
constexpr std::string_view kSpecSuffix = ".json";

util::Status EnsureDirectory(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (S_ISDIR(st.st_mode)) return util::Status::Ok();
    return util::Status::FailedPrecondition("state dir path exists and is not a directory: " + path);
  }
  if (::mkdir(path.c_str(), 0777) != 0) {
    return util::Status::Internal("mkdir " + path + ": " + std::strerror(errno));
  }
  return util::Status::Ok();
}

}  // namespace

// ------------------------------------------------------------ Campaign --

Campaign::Campaign(CampaignSpec spec,
                   std::unique_ptr<const campaign::PayloadPlan> plan,
                   std::string store_path)
    : spec_(std::move(spec)),
      plan_(std::move(plan)),
      store_path_(std::move(store_path)),
      leases_(plan_->total_units(), spec_.chunk_units),
      merge_(plan_->total_units()) {}

util::StatusOr<std::unique_ptr<Campaign>> Campaign::Create(
    const CampaignSpec& spec, const std::string& store_path,
    int fsync_batch) {
  auto plan = campaign::PlanForPreset(spec.preset);
  if (!plan.ok()) return plan.status();

  campaign::StoreHeader header;
  header.fingerprint = (*plan)->fingerprint();
  header.shard_index = 0;
  header.shard_count = 1;
  header.total_units = (*plan)->total_units();
  auto writer = campaign::StoreWriter::Create(store_path, header, fsync_batch);
  if (!writer.ok()) return writer.status();

  std::unique_ptr<Campaign> c(
      new Campaign(spec, std::move(plan).value(), store_path));
  c->writer_.emplace(std::move(writer).value());
  return c;
}

util::StatusOr<std::unique_ptr<Campaign>> Campaign::Recover(
    const CampaignSpec& spec, const std::string& store_path,
    int fsync_batch) {
  auto plan = campaign::PlanForPreset(spec.preset);
  if (!plan.ok()) return plan.status();

  auto scan = campaign::ScanStore(store_path);
  if (!scan.ok()) return scan.status();
  if (scan->header.fingerprint != (*plan)->fingerprint() ||
      scan->header.total_units != (*plan)->total_units() ||
      scan->header.shard_count != 1) {
    return util::Status::FailedPrecondition(
        "store " + store_path +
        " does not match the campaign's preset plan (fingerprint or "
        "universe size differs) — stale state dir?");
  }
  CMLDFT_RETURN_IF_ERROR(campaign::RepairStore(store_path, *scan));

  std::unique_ptr<Campaign> c(
      new Campaign(spec, std::move(plan).value(), store_path));
  c->torn_tail_repaired_ = scan->torn_tail;
  for (const std::string& record : scan->records) {
    auto fold = c->merge_.Fold(record);
    if (!fold.ok()) return fold.status();
    if (fold->new_unit) {
      c->leases_.MarkDone(fold->unit_id);
      ++c->recovered_units_;
    }
  }

  auto writer = campaign::StoreWriter::OpenAppend(store_path, fsync_batch);
  if (!writer.ok()) return writer.status();
  c->writer_.emplace(std::move(writer).value());
  return c;
}

util::StatusOr<Campaign::FoldStats> Campaign::FoldRecords(
    const std::vector<std::string>& records) {
  FoldStats stats;
  for (const std::string& record : records) {
    // A batch arriving after completion (a straggler whose lease was
    // stolen and re-delivered) folds like any other: every record is a
    // duplicate, gets cross-checked against the first delivery, and is
    // dropped — the sender must see success, not an error, or a healthy
    // worker would abort over work that merely finished twice.
    auto fold = merge_.Fold(record);
    if (!fold.ok()) return fold.status();
    if (fold->duplicate) {
      ++stats.duplicates;
      continue;
    }
    if (!fold->new_unit && !fold->new_singleton) continue;
    if (finished_ || !writer_.has_value()) {
      // Unreachable: finished means all units folded, so every record
      // above deduped. Guard anyway rather than drop a record silently.
      return util::Status::Internal(
          "new record arrived for finished campaign " +
          std::to_string(spec_.id));
    }
    // Durable before visible: the record reaches the store before the
    // unit is credited, so a crash between the two re-folds it on
    // recovery instead of losing it.
    CMLDFT_RETURN_IF_ERROR(writer_->AppendRecord(record));
    if (fold->new_unit) {
      leases_.MarkDone(fold->unit_id);
      ++stats.new_units;
    }
  }
  return stats;
}

util::Status Campaign::Finish() {
  if (finished_) return util::Status::Ok();
  finished_ = true;
  if (writer_.has_value()) {
    CMLDFT_RETURN_IF_ERROR(writer_->Close());
    writer_.reset();
  }
  return util::Status::Ok();
}

void Campaign::SetKillAtSize(uint64_t bytes) {
  if (writer_.has_value()) writer_->SetKillAtSize(bytes);
}

// ------------------------------------------------------- CampaignQueue --

std::string CampaignQueue::StorePathFor(uint64_t id) const {
  return state_dir_ + "/" + std::string(kSpecPrefix) + std::to_string(id) +
         ".campaign";
}

std::string CampaignQueue::SpecPathFor(uint64_t id) const {
  return state_dir_ + "/" + std::string(kSpecPrefix) + std::to_string(id) +
         std::string(kSpecSuffix);
}

util::StatusOr<CampaignQueue> CampaignQueue::Open(const std::string& state_dir,
                                                  uint64_t default_chunk_units,
                                                  int fsync_batch) {
  CMLDFT_RETURN_IF_ERROR(EnsureDirectory(state_dir));
  CampaignQueue queue(state_dir, default_chunk_units, fsync_batch);

  // Collect submission ids (the .json is the unit of existence: a store
  // without one is a crashed half-submit and is ignored).
  std::vector<uint64_t> ids;
  DIR* dir = ::opendir(state_dir.c_str());
  if (dir == nullptr) {
    return util::Status::Internal("opendir " + state_dir + ": " +
                                  std::strerror(errno));
  }
  while (dirent* entry = ::readdir(dir)) {
    const std::string_view name = entry->d_name;
    if (name.size() <= kSpecPrefix.size() + kSpecSuffix.size()) continue;
    if (name.substr(0, kSpecPrefix.size()) != kSpecPrefix) continue;
    if (name.substr(name.size() - kSpecSuffix.size()) != kSpecSuffix) continue;
    const std::string_view digits = name.substr(
        kSpecPrefix.size(),
        name.size() - kSpecPrefix.size() - kSpecSuffix.size());
    uint64_t id = 0;
    bool numeric = !digits.empty();
    for (char ch : digits) {
      if (ch < '0' || ch > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<uint64_t>(ch - '0');
    }
    if (numeric) ids.push_back(id);
  }
  ::closedir(dir);
  std::sort(ids.begin(), ids.end());

  for (uint64_t id : ids) {
    auto doc = report::ReadJsonFile(queue.SpecPathFor(id));
    if (!doc.ok()) return doc.status();
    CampaignSpec spec;
    spec.id = id;
    spec.preset = doc->GetString("preset");
    spec.priority = static_cast<int>(doc->GetNumber("priority", 0));
    spec.chunk_units =
        static_cast<uint64_t>(doc->GetNumber("chunk_units", 0));
    if (spec.preset.empty() || spec.chunk_units == 0) {
      return util::Status::ParseError("malformed campaign submission " +
                                      queue.SpecPathFor(id));
    }
    auto campaign =
        Campaign::Recover(spec, queue.StorePathFor(id), fsync_batch);
    if (!campaign.ok()) return campaign.status();
    queue.campaigns_.push_back(std::move(campaign).value());
    queue.next_id_ = std::max(queue.next_id_, id + 1);
  }
  return queue;
}

util::StatusOr<uint64_t> CampaignQueue::Submit(std::string_view preset,
                                               int priority,
                                               uint64_t chunk_units) {
  CampaignSpec spec;
  spec.id = next_id_;
  spec.preset = std::string(preset);
  spec.priority = priority;
  spec.chunk_units = chunk_units == 0 ? default_chunk_units_ : chunk_units;

  // Store first, submission json last: the json's existence commits the
  // campaign, so a crash in between leaves only an orphan store that the
  // next Open ignores.
  auto campaign = Campaign::Create(spec, StorePathFor(spec.id), fsync_batch_);
  if (!campaign.ok()) return campaign.status();
  if (kill_at_bytes_ != 0) (*campaign)->SetKillAtSize(kill_at_bytes_);

  report::Json doc = report::Json::Object();
  doc.Set("id", report::Json::Int(static_cast<long long>(spec.id)));
  doc.Set("preset", report::Json::Str(spec.preset));
  doc.Set("priority", report::Json::Int(spec.priority));
  doc.Set("chunk_units",
          report::Json::Int(static_cast<long long>(spec.chunk_units)));
  const std::string tmp = SpecPathFor(spec.id) + ".tmp";
  CMLDFT_RETURN_IF_ERROR(report::WriteJsonFile(tmp, doc));
  if (std::rename(tmp.c_str(), SpecPathFor(spec.id).c_str()) != 0) {
    return util::Status::Internal("rename " + tmp + ": " +
                                  std::strerror(errno));
  }

  campaigns_.push_back(std::move(campaign).value());
  ++next_id_;
  return spec.id;
}

Campaign* CampaignQueue::Find(uint64_t id) {
  for (auto& c : campaigns_) {
    if (c->spec().id == id) return c.get();
  }
  return nullptr;
}

std::vector<Campaign*> CampaignQueue::Ordered() {
  std::vector<Campaign*> out;
  out.reserve(campaigns_.size());
  for (auto& c : campaigns_) out.push_back(c.get());
  std::stable_sort(out.begin(), out.end(),
                   [](const Campaign* a, const Campaign* b) {
                     if (a->spec().priority != b->spec().priority) {
                       return a->spec().priority > b->spec().priority;
                     }
                     return a->spec().id < b->spec().id;
                   });
  return out;
}

bool CampaignQueue::AllComplete() const {
  for (const auto& c : campaigns_) {
    if (!c->complete()) return false;
  }
  return true;
}

void CampaignQueue::SetKillAtSize(uint64_t bytes) {
  kill_at_bytes_ = bytes;
  for (auto& c : campaigns_) c->SetKillAtSize(bytes);
}

}  // namespace cmldft::service
