// Three-valued logic (0, 1, X) for gate-level simulation. X models the
// unknown power-up state of sequential elements (needed for the paper's
// §6.6 initialization-convergence analysis, ref [13]).
#pragma once

#include <cstdint>
#include <string_view>

namespace cmldft::digital {

enum class Logic : uint8_t { k0 = 0, k1 = 1, kX = 2 };

constexpr Logic FromBool(bool b) { return b ? Logic::k1 : Logic::k0; }

constexpr bool IsKnown(Logic v) { return v != Logic::kX; }

constexpr Logic Not(Logic a) {
  if (a == Logic::k0) return Logic::k1;
  if (a == Logic::k1) return Logic::k0;
  return Logic::kX;
}

constexpr Logic And(Logic a, Logic b) {
  if (a == Logic::k0 || b == Logic::k0) return Logic::k0;
  if (a == Logic::k1 && b == Logic::k1) return Logic::k1;
  return Logic::kX;
}

constexpr Logic Or(Logic a, Logic b) {
  if (a == Logic::k1 || b == Logic::k1) return Logic::k1;
  if (a == Logic::k0 && b == Logic::k0) return Logic::k0;
  return Logic::kX;
}

constexpr Logic Xor(Logic a, Logic b) {
  if (!IsKnown(a) || !IsKnown(b)) return Logic::kX;
  return FromBool(a != b);
}

/// sel ? a : b, with X-pessimism (X select with differing inputs gives X).
constexpr Logic Mux(Logic sel, Logic a, Logic b) {
  if (sel == Logic::k1) return a;
  if (sel == Logic::k0) return b;
  return a == b ? a : Logic::kX;
}

}  // namespace cmldft::digital
