// Release model of MonitorEngine's lockstep gate, replayed outside the
// engine so the benchmark can say which tick classified each frame and
// which frame released that tick.
//
// The model mirrors the engine with its straggler policy off (the
// default): a link joins the batch with its first frame and stays until
// finish(); a tick fires whenever every active link has a package pending
// and takes one package from each; finish() closes every link, after which
// drained links retire (swap-to-back, like the engine) and the rest keep
// ticking until empty. A sharded engine runs one such gate per shard over
// the links ingest::shard_of assigns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "ics/link_mux.hpp"

namespace mlad::servebench {

/// One shard's gate. Callers observe it through Hooks: `join` when a link
/// takes slot `slot`, `tick` with the wire index of each slot's front
/// package (slot order), `retire` when slot `slot` is swapped with `last`
/// and dropped.
class Lockstep {
 public:
  struct Hooks {
    virtual ~Hooks() = default;
    virtual void join(std::size_t slot) { (void)slot; }
    virtual void tick(std::span<const std::uint32_t> fronts) = 0;
    virtual void retire(std::size_t slot, std::size_t last) {
      (void)slot;
      (void)last;
    }
  };

  explicit Lockstep(std::size_t links) : links_(links) {}

  /// Frame `index` of the wire arrives on `link` (links are dense ids).
  void push(ics::LinkId link, std::uint32_t index, Hooks& hooks);
  /// Close every link and drain, as MonitorEngine::finish does.
  void finish(Hooks& hooks);

  std::uint64_t ticks() const { return ticks_; }

 private:
  struct Link {
    std::deque<std::uint32_t> queue;
    std::size_t slot = kNoSlot;
  };
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  void tick(Hooks& hooks);

  std::vector<Link> links_;
  std::vector<ics::LinkId> slots_;
  std::vector<std::uint32_t> fronts_;
  std::size_t empty_ = 0;  ///< active links with nothing pending
  std::uint64_t ticks_ = 0;
};

/// Which tick classified every frame of a wire, and what released it.
struct GateModel {
  static constexpr std::int64_t kFinish = -1;
  std::vector<std::uint32_t> tick_of;  ///< wire index → global tick id
  /// Global tick id → wire index of the frame whose arrival fired it, or
  /// kFinish for ticks released by finish().
  std::vector<std::int64_t> releaser;
  std::vector<std::uint64_t> shard_ticks;  ///< ticks per shard
  std::uint64_t ticks() const { return releaser.size(); }
};

/// Model `wire` served by `shards` lockstep engines (1 = one engine).
GateModel model_gate(std::span<const ics::LinkFrame> wire,
                     std::size_t links, std::size_t shards);

}  // namespace mlad::servebench
