#include "bench/reference.h"

#include <chrono>
#include <utility>

namespace perfbench {

namespace {

constexpr int kTableSize = 1024;
constexpr int kFunctions = 2000;
constexpr int kHotFunctions = 400;

/// One of kFunctions distinct functions: a few dependent multiply, table
/// and branch steps whose constants differ per N, so each instantiation
/// is its own machine code.
template <int N>
__attribute__((noinline)) uint64_t Step(uint64_t x, const uint64_t* t) {
  for (int i = 0; i < 3; ++i) {
    x = x * (6364136223846793005ull + N) + t[(x >> (N % 13 + 3)) % kTableSize];
    if ((x ^ N) & 1) {
      x ^= x >> (N % 7 + 1);
    } else {
      x += N * 31;
    }
    switch ((x >> 7) % 4) {
      case 0:
        x += t[N % kTableSize];
        break;
      case 1:
        x ^= N;
        break;
      case 2:
        x *= 3;
        break;
      default:
        x -= t[(N * 7) % kTableSize];
    }
  }
  return x;
}

template <int... I>
uint64_t CallEach(uint64_t x, const uint64_t* t,
                  std::integer_sequence<int, I...>) {
  ((x = Step<I>(x, t)), ...);
  return x;
}

}  // namespace

SpeedReference::SpeedReference() : table_(kTableSize, 7) {}

double SpeedReference::Run() {
  auto t0 = std::chrono::steady_clock::now();
  uint64_t x = state_;
  const uint64_t* t = table_.data();
  // Four passes over every function, then twenty over the first 400:
  // a footprint larger than the L1 and L2 code caches plus a hot set.
  for (int r = 0; r < 4; ++r) {
    x = CallEach(x + r, t, std::make_integer_sequence<int, kFunctions>{});
  }
  for (int r = 0; r < 20; ++r) {
    x = CallEach(x + r, t, std::make_integer_sequence<int, kHotFunctions>{});
  }
  state_ = x;  // keeps the work observable
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
