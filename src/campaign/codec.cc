#include "campaign/codec.h"

#include <iterator>

#include "campaign/bytes.h"
#include "util/hash.h"

namespace cmldft::campaign {

namespace {

void WriteDefect(ByteWriter& w, const defects::Defect& d) {
  w.U8(static_cast<uint8_t>(d.type));
  w.Str(d.device);
  w.I32(d.terminal_a);
  w.I32(d.terminal_b);
  w.Str(d.node_a);
  w.Str(d.node_b);
  w.F64(d.resistance);
}

defects::Defect ReadDefect(ByteReader& r) {
  defects::Defect d;
  d.type = static_cast<defects::DefectType>(r.U8());
  d.device = r.Str();
  d.terminal_a = r.I32();
  d.terminal_b = r.I32();
  d.node_a = r.Str();
  d.node_b = r.Str();
  d.resistance = r.F64();
  return d;
}

}  // namespace

std::string_view PayloadNameOf(RecordType type) {
  // Each payload owns one (singleton, unit) pair of consecutive types.
  constexpr std::string_view kNames[] = {"screening", "pattern",
                                         "characterization"};
  const unsigned t = static_cast<uint8_t>(type);
  return t >= 1 && t <= 2 * std::size(kNames) ? kNames[(t - 1) / 2]
                                              : std::string_view();
}

std::string EncodeReferenceRecord(const core::ScreeningReport& reference) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kReference));
  w.F64(reference.nominal_swing);
  w.F64(reference.reference_delay);
  w.F64(reference.reference_detector_vout);
  w.F64(reference.reference_supply_current);
  w.F64Vec(reference.reference_detector_vouts);
  return w.Take();
}

std::string EncodeOutcomeRecord(uint64_t unit_id,
                                const core::DefectOutcome& outcome) {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(RecordType::kOutcome));
  w.U64(unit_id);
  WriteDefect(w, outcome.defect);
  w.Bool(outcome.converged);
  w.Bool(outcome.no_bias_point);
  w.Str(outcome.error);
  w.Bool(outcome.logic_fail);
  w.Bool(outcome.delay_fail);
  w.Bool(outcome.iddq_fail);
  w.Bool(outcome.amplitude_detected);
  w.F64(outcome.max_gate_amplitude);
  w.F64(outcome.min_detector_vout);
  w.F64Vec(outcome.detector_vouts);
  w.F64(outcome.supply_current);
  return w.Take();
}

util::StatusOr<core::ScreeningReport> DecodeReferenceRecord(
    std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kReference) {
    return util::Status::ParseError("not a screening reference record");
  }
  core::ScreeningReport reference;
  reference.nominal_swing = r.F64();
  reference.reference_delay = r.F64();
  reference.reference_detector_vout = r.F64();
  reference.reference_supply_current = r.F64();
  reference.reference_detector_vouts = r.F64Vec();
  CMLDFT_RETURN_IF_ERROR(r.Finish("screening reference"));
  return reference;
}

util::StatusOr<OutcomeRecord> DecodeOutcomeRecord(std::string_view payload) {
  ByteReader r(payload);
  if (static_cast<RecordType>(r.U8()) != RecordType::kOutcome) {
    return util::Status::ParseError("not a defect-outcome record");
  }
  OutcomeRecord rec;
  rec.unit_id = r.U64();
  rec.outcome.defect = ReadDefect(r);
  rec.outcome.converged = r.Bool();
  rec.outcome.no_bias_point = r.Bool();
  rec.outcome.error = r.Str();
  rec.outcome.logic_fail = r.Bool();
  rec.outcome.delay_fail = r.Bool();
  rec.outcome.iddq_fail = r.Bool();
  rec.outcome.amplitude_detected = r.Bool();
  rec.outcome.max_gate_amplitude = r.F64();
  rec.outcome.min_detector_vout = r.F64();
  rec.outcome.detector_vouts = r.F64Vec();
  rec.outcome.supply_current = r.F64();
  CMLDFT_RETURN_IF_ERROR(r.Finish("defect-outcome"));
  return rec;
}

uint64_t CampaignFingerprint(const core::ScreeningOptions& options,
                             const std::vector<defects::Defect>& universe) {
  util::ContentHasher h;
  h.Str("cmldft-campaign-fingerprint-v1");
  h.I64(options.chain_length);
  h.F64(options.frequency);
  h.F64(options.sim_time);
  h.F64(options.detector_drop);
  h.F64(options.logic_swing_fraction);
  h.F64(options.delay_threshold);
  h.F64(options.iddq_fraction);
  const core::DetectorOptions& det = options.detector;
  h.I64(static_cast<int64_t>(det.load_kind));
  h.F64(det.load_cap);
  h.F64(det.load_resistor);
  h.F64(det.bleed_resistor);
  h.F64(det.r0);
  h.F64(det.vtest_test_mode);
  h.Bool(det.multi_emitter);
  h.F64(det.comparator_tail);
  h.F64(det.comparator_rc);
  h.F64(det.comparator_fb_bleed);
  h.F64(det.comparator_beta);
  // The enumeration options themselves are not hashed: their effect is the
  // universe, and the universe is hashed in full — structure, ordering,
  // and electrical values. A netlist or enumeration change shows up here.
  h.U64(universe.size());
  for (const defects::Defect& d : universe) {
    h.I64(static_cast<int64_t>(d.type));
    h.Str(d.device);
    h.I64(d.terminal_a);
    h.I64(d.terminal_b);
    h.Str(d.node_a);
    h.Str(d.node_b);
    h.F64(d.resistance);
  }
  return h.Digest();
}

}  // namespace cmldft::campaign
