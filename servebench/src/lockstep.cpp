#include "lockstep.hpp"

#include <stdexcept>

#include "ingest/shard_router.hpp"

namespace mlad::servebench {

void Lockstep::push(ics::LinkId link, std::uint32_t index, Hooks& hooks) {
  if (link >= links_.size()) {
    throw std::out_of_range("Lockstep: link id beyond the wire's links");
  }
  Link& l = links_[link];
  if (l.slot == kNoSlot) {
    l.slot = slots_.size();
    slots_.push_back(link);
    ++empty_;
    hooks.join(l.slot);
  }
  if (l.queue.empty()) --empty_;
  l.queue.push_back(index);
  while (!slots_.empty() && empty_ == 0) tick(hooks);
}

void Lockstep::finish(Hooks& hooks) {
  for (;;) {
    for (std::size_t s = slots_.size(); s-- > 0;) {
      Link& l = links_[slots_[s]];
      if (!l.queue.empty()) continue;
      const std::size_t last = slots_.size() - 1;
      hooks.retire(s, last);
      if (s != last) {
        std::swap(slots_[s], slots_[last]);
        links_[slots_[s]].slot = s;
      }
      slots_.pop_back();
      l.slot = kNoSlot;
      --empty_;
    }
    if (slots_.empty()) return;
    tick(hooks);
  }
}

void Lockstep::tick(Hooks& hooks) {
  fronts_.resize(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    Link& l = links_[slots_[s]];
    fronts_[s] = l.queue.front();
    l.queue.pop_front();
    if (l.queue.empty()) ++empty_;
  }
  ++ticks_;
  hooks.tick(fronts_);
}

GateModel model_gate(std::span<const ics::LinkFrame> wire, std::size_t links,
                     std::size_t shards) {
  struct Recorder final : Lockstep::Hooks {
    GateModel* model = nullptr;
    std::int64_t releaser = GateModel::kFinish;
    void tick(std::span<const std::uint32_t> fronts) override {
      const auto id = static_cast<std::uint32_t>(model->releaser.size());
      model->releaser.push_back(releaser);
      for (const std::uint32_t f : fronts) model->tick_of[f] = id;
    }
  };

  GateModel model;
  model.tick_of.assign(wire.size(), 0);
  model.shard_ticks.assign(shards, 0);
  std::vector<Lockstep> gates(shards, Lockstep(links));
  Recorder rec;
  rec.model = &model;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    rec.releaser = static_cast<std::int64_t>(i);
    const std::size_t shard = ingest::shard_of(wire[i].link, shards);
    gates[shard].push(wire[i].link, static_cast<std::uint32_t>(i), rec);
  }
  rec.releaser = GateModel::kFinish;
  for (std::size_t s = 0; s < shards; ++s) {
    gates[s].finish(rec);
    model.shard_ticks[s] = gates[s].ticks();
  }
  return model;
}

}  // namespace mlad::servebench
