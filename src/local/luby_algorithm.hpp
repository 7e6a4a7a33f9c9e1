// Implementation detail of Luby's MIS (local/luby_mis.*), exposed so the
// virtual-hosting layer (core/virtual_local.hpp, the distributed
// reduction) can run the identical algorithm through host simulation.
// Library users should call luby_mis() / LubyOracle instead.
#pragma once

#include <cstdint>

#include "local/simulator.hpp"

namespace pslocal::detail {

enum class LubyStatus : std::uint8_t { kUndecided, kIn, kOut };
enum class LubyPhase : std::uint8_t { kPriority, kAnnounce };

struct LubyState {
  LubyStatus status = LubyStatus::kUndecided;
  LubyPhase phase = LubyPhase::kPriority;
  std::uint64_t priority = 0;
  bool tentative_join = false;
};

struct LubyMsg {
  bool undecided = false;
  std::uint64_t priority = 0;
  VertexId sender = 0;  // tie-break on (priority, id)
  bool joined = false;
};

class LubyAlgorithm {
 public:
  using State = LubyState;
  using Msg = LubyMsg;

  LubyState init(VertexId, const Graph&, Rng& rng) {
    LubyState s;
    s.priority = rng.next_u64();
    return s;
  }

  std::optional<LubyMsg> emit(VertexId v, const LubyState& s) {
    LubyMsg m;
    m.undecided = (s.status == LubyStatus::kUndecided);
    m.priority = s.priority;
    m.sender = v;
    m.joined = s.tentative_join;
    return m;
  }

  void step(VertexId v, LubyState& s, InboxView<LubyMsg> inbox, Rng& rng) {
    if (s.status == LubyStatus::kIn) {
      // Joined last round; the announcement was emitted from the pre-round
      // state, so the iteration can close for this node.
      if (s.phase == LubyPhase::kAnnounce) {
        s.tentative_join = false;
        s.phase = LubyPhase::kPriority;
      }
      return;
    }
    if (s.status == LubyStatus::kOut) return;
    if (s.phase == LubyPhase::kPriority) {
      // Join iff strictly smallest (priority, id) among undecided closed
      // neighborhood.
      bool is_min = true;
      for (const auto& m : inbox) {
        if (!m || !m->undecided) continue;
        if (m->priority < s.priority ||
            (m->priority == s.priority && m->sender < v)) {
          is_min = false;
          break;
        }
      }
      s.tentative_join = is_min;
      if (is_min) s.status = LubyStatus::kIn;
      s.phase = LubyPhase::kAnnounce;
    } else {
      for (const auto& m : inbox) {
        if (m && m->joined) {
          s.status = LubyStatus::kOut;
          break;
        }
      }
      s.tentative_join = false;
      s.priority = rng.next_u64();  // fresh priority for the next iteration
      s.phase = LubyPhase::kPriority;
    }
  }

  bool halted(VertexId, const LubyState& s) {
    // A node that joined must still announce once, hence the phase check.
    return s.status != LubyStatus::kUndecided &&
           s.phase == LubyPhase::kPriority && !s.tentative_join;
  }
};

/// Default round cap scaling with the w.h.p. bound.
inline std::size_t luby_default_round_cap(std::size_t n) {
  double nn = n < 2 ? 2.0 : static_cast<double>(n);
  std::size_t log2n = 0;
  while (nn > 1.0) {
    nn /= 2.0;
    ++log2n;
  }
  return 2 * (40 + 8 * log2n);
}

}  // namespace pslocal::detail
