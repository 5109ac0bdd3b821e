// Bit-pattern regression helpers shared by the test binaries that pin
// floating-point output (solver layouts, interpolation kernels).

#ifndef LAYOUTDB_TESTS_RECORDED_BITS_H_
#define LAYOUTDB_TESTS_RECORDED_BITS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>

#include <gtest/gtest.h>

namespace ldb {

/// FNV-1a over raw bytes, continuing from `h`.
inline uint64_t Fnv1a(const void* data, size_t bytes,
                      uint64_t h = 14695981039346656037ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t b = 0; b < bytes; ++b) {
    h ^= p[b];
    h *= 1099511628211ull;
  }
  return h;
}

/// True when this build matches the one the recorded hashes were taken on:
/// GCC 12, kernels compiled with AVX2+FMA (the test target defines
/// LDB_SIMD_KERNEL_FLAGS then), no sanitizer instrumentation
/// (RelWithDebInfo and Release agree). Floating-point bit patterns depend
/// on which products the compiler fuses into FMAs and how it vectorizes, so
/// other toolchains and instrumented builds produce different bits.
constexpr bool kBitsRecordedForThisBuild =
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ == 12 && \
    defined(LDB_SIMD_KERNEL_FLAGS) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

/// Checks one computation's hash against the recorded one. On a build the
/// hashes were not recorded on, checks instead that the computation repeats
/// bit for bit, and prints the hash it saw.
inline void ExpectRecordedBits(const char* name, uint64_t recorded,
                               const std::function<uint64_t()>& compute) {
  const uint64_t got = compute();
  if (kBitsRecordedForThisBuild) {
    EXPECT_EQ(got, recorded) << name;
    return;
  }
  EXPECT_EQ(compute(), got) << name << ": the result is not deterministic";
  std::printf("[ unrecorded build ] %s: 0x%016llx\n", name,
              static_cast<unsigned long long>(got));
}

}  // namespace ldb

#endif  // LAYOUTDB_TESTS_RECORDED_BITS_H_
