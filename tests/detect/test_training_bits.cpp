// Training bits are pinned per kernel backend (DESIGN.md §5, §7): a small
// fixed detector trained through each step the training driver can take —
// train() through the batched engine, train() per window (batch_size = 1),
// and train_sharded over two keyed captures — must serialize to the same
// model bytes as the build these constants were recorded from. The
// models differ between backends; within one backend any change to the
// training arithmetic — a kernel, the layer-0 code path, the optimizer —
// changes the checksum.
//
// The fixture keeps the hidden widths at multiples of 16, so the SIMD gate
// kernels have no scalar tails and the SIMD backends do not depend on libm's
// float exp/tanh. The scalar backend does, so its constant is held only on
// glibc 2.36–2.40, whose expf/tanhf agree with the recording host's.
// A build with FMA contraction in every TU (-march=native) rounds the
// optimizer and the scalar kernels differently, so it has its own table
// (GCC only). A backend with no constant for this build is skipped, and the
// checksum it computed is printed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ios>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/timeseries_detector.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/serialize.hpp"

namespace mlad::detect {
namespace {

/// Which training call the fixed detector goes through.
enum Loop : std::size_t {
  kBatched,    ///< train() at batch_size 8
  kPerWindow,  ///< train() at batch_size 1, the per-window reference
  kSharded,    ///< train_sharded over two keyed captures at batch_size 4
  kLoops
};
constexpr const char* kLoopNames[kLoops] = {"batched", "per-window",
                                            "sharded"};

struct Recorded {
  const char* backend;
  std::uint64_t checksum[kLoops];  ///< indexed by Loop; 0 = not recorded
};

// Recorded with gcc 12.2 (Release) on an x86-64 host with AVX-512. The
// per-window step runs the per-sample model path, which no backend
// dispatches, so its constant is the same in every row.
#if defined(__FMA__) && defined(__GNUC__) && !defined(__clang__)
constexpr Recorded kRecorded[] = {
    {"scalar",
     {0xe4d6daafcb42ab70ULL, 0x268ae401209fd034ULL, 0xb5135d4883bc1563ULL}},
    {"avx2",
     {0xafa2938accb50556ULL, 0x268ae401209fd034ULL, 0xe70d0e8b172a866eULL}},
    {"avx512",
     {0xc86039cefd695f14ULL, 0x268ae401209fd034ULL, 0x973a0161bf0a4586ULL}},
};
#elif defined(__FMA__)
constexpr Recorded kRecorded[] = {{"none", {0, 0, 0}}};
#else
constexpr Recorded kRecorded[] = {
    {"scalar",
     {0xfa508cbc24205c4fULL, 0x72a27527c56164ccULL, 0x5a776a625a801ec4ULL}},
    {"avx2",
     {0xd3ef782f297ac06dULL, 0x72a27527c56164ccULL, 0xc62d02223f54c21aULL}},
    {"avx512",
     {0x75138507cf2dace2ULL, 0x72a27527c56164ccULL, 0xbfaa090b5dfd457aULL}},
};
#endif

bool libm_matches_recording() {
#if defined(__GLIBC__) && defined(__GLIBC_MINOR__)
  return __GLIBC__ == 2 && __GLIBC_MINOR__ >= 36 && __GLIBC_MINOR__ <= 40;
#else
  return false;
#endif
}

std::optional<std::uint64_t> recorded(const std::string& backend,
                                      Loop loop) {
  if (backend == "scalar" && !libm_matches_recording()) return std::nullopt;
  for (const Recorded& r : kRecorded) {
    if (backend == r.backend && r.checksum[loop] != 0) {
      return r.checksum[loop];
    }
  }
  return std::nullopt;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Six features; the 1- and 2-value ones share 4-column blocks, and the
/// noisy bit (column 17) sits in the K % 4 tail of the 18 input columns.
const std::vector<std::size_t> kCards = {2, 1, 3, 4, 2, 5};

/// A noisy periodic protocol over the schema: every feature cycles with
/// its own period, and a seeded Rng now and then swaps one value.
std::vector<DiscreteFragment> fragments(std::uint64_t seed, std::size_t count,
                                        std::size_t length) {
  Rng rng(seed);
  std::vector<DiscreteFragment> out(count);
  for (DiscreteFragment& frag : out) {
    const std::size_t phase = rng.index(12);
    for (std::size_t t = 0; t < length; ++t) {
      sig::DiscreteRow row(kCards.size());
      for (std::size_t f = 0; f < kCards.size(); ++f) {
        row[f] = static_cast<std::uint16_t>((t + phase + f) % kCards[f]);
        if (rng.bernoulli(0.03)) {
          row[f] = static_cast<std::uint16_t>(rng.index(kCards[f]));
        }
      }
      frag.push_back(row);
    }
  }
  return out;
}

/// Train the fixed detector on the active backend through `loop`; the
/// checksum of its serialized LSTM model.
std::uint64_t train_checksum(Loop loop) {
  const std::vector<DiscreteFragment> train = fragments(3, 24, 40);
  sig::SignatureDatabase db{sig::SignatureGenerator(kCards)};
  for (const DiscreteFragment& frag : train) {
    for (const sig::DiscreteRow& row : frag) db.add(row);
  }
  TimeSeriesConfig config;
  config.hidden_dims = {16, 16};
  config.epochs = 3;
  config.truncate_steps = 16;
  config.batch_size = 8;
  config.micro_batch = 4;  // 4-row steps: the scalar pairing blocks fill
  config.threads = 1;
  config.noise.enabled = true;  // noisy bits and insertions in the inputs
  if (loop == kPerWindow) config.batch_size = 1;
  if (loop == kSharded) {
    config.batch_size = 4;
    config.micro_batch = 2;
  }
  Rng rng(17);
  TimeSeriesDetector det(db, kCards, config, rng);
  if (loop == kSharded) {
    const std::span<const DiscreteFragment> all(train);
    const std::vector<CaptureShard> captures = {{"b.cap", all.subspan(14)},
                                                {"a.cap", all.first(14)}};
    det.train_sharded(captures, /*base_seed=*/23);
  } else {
    det.train(train, rng);
  }
  std::ostringstream bytes;
  nn::save_model(bytes, det.model());
  return fnv1a(bytes.str());
}

TEST(TrainingBits, ModelChecksumPerBackendMatchesRecording) {
  std::size_t checked = 0;
  for (const std::string& backend : nn::available_kernel_backends()) {
    ASSERT_TRUE(nn::select_kernel_backend(backend));
    for (std::size_t l = 0; l < kLoops; ++l) {
      const Loop loop = static_cast<Loop>(l);
      const std::uint64_t got = train_checksum(loop);
      const std::optional<std::uint64_t> want = recorded(backend, loop);
      if (!want) {
        std::printf("no recorded constant for %s %s in this build: "
                    "0x%016llxULL\n",
                    backend.c_str(), kLoopNames[l],
                    static_cast<unsigned long long>(got));
        continue;
      }
      EXPECT_EQ(got, *want) << backend << " " << kLoopNames[l]
                            << ": training arithmetic changed, model "
                            << "checksum 0x" << std::hex << got;
      ++checked;
    }
  }
  nn::select_kernel_backend_from_env();
  if (checked == 0) GTEST_SKIP() << "no recorded constant for this build";
}

}  // namespace
}  // namespace mlad::detect
