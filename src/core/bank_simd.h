// Row kernels for DetectorBank: advance every lane of a same-family bank by
// one observation.
//
// All hot per-lane state is stored as IEEE doubles holding exact small
// integers (window counts, bucket pointers, fill counters), so one kernel
// shape — load, add, divide, compare, blend — covers every family and maps
// 1:1 onto both the portable loops below and the AVX2/NEON intrinsic
// versions. Bit-identity with the scalar detectors follows from the
// arithmetic being per-lane: each lane's window sum is accumulated in the
// same left-to-right order as WindowAverage::push, the average is the same
// single division, and the cascade is the same +-1 integer walk, so
// vectorizing *across* lanes never reassociates a lane's own floating-point
// work. The only values a kernel does not produce are the retargeting
// results (bucket targets, SARAA's schedule): those are flagged per lane in
// `changed` and recomputed afterwards by a scalar fixup pass that calls the
// very same Baseline::bucket_target / Baseline::scaled_target /
// saraa_sample_size functions the scalar detectors use.
//
// The cascade step is branchless: a lane whose window is not yet full gets
// delta = 0, which leaves fill in [0, D] and the bucket below K, so none of
// the escalate / de-escalate / trigger conditions can fire spuriously.
//
// Intrinsic kernels are compiled on x86-64 (AVX2) and aarch64 (NEON) with
// GCC or Clang, and use per-function target attributes, so the rest of the
// translation unit keeps the baseline ISA; callers must still check CPU
// support at runtime (DetectorBank does, with the portable loop as the
// fallback).
//
// The intrinsics are not redundant with the portable loops: GCC 12.2 at -O3
// vectorizes none of the three portable kernels ("not vectorized: control
// flow in loop"). Compiling the intrinsics out cost perfbench fleet_1k_hot
// about 11% CPU per message, and an `omp simd` rewrite of the portable
// loops ran 2.2-2.7x slower than the intrinsics (docs/BANKS.md has the
// measurements).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REJUV_BANK_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__) && (defined(__GNUC__) || defined(__clang__))
#define REJUV_BANK_NEON 1
#include <arm_neon.h>
#endif

namespace rejuv::core::bank_kernel {

/// Bits of the kernel return value: which per-lane flag arrays are worth
/// scanning after the row.
inline constexpr std::uint32_t kAnyChanged = 1u;  ///< some lane needs retargeting
inline constexpr std::uint32_t kAnyTriggered = 2u;  ///< some lane rejuvenated

/// One row of input for a bank of window + cascade detectors (SRAA, SARAA).
/// All pointers address `lanes` contiguous elements of the bank's SoA state.
struct WindowCascadeRow {
  std::size_t lanes = 0;
  const double* values = nullptr;  ///< one observation per lane
  double* sum = nullptr;           ///< running window sums
  double* count = nullptr;         ///< observations in the current block
  double* wcur = nullptr;          ///< current block length
  const double* wnext = nullptr;   ///< block length after the next boundary
  const double* target = nullptr;  ///< per-lane bucket target in force
  double* fill = nullptr;          ///< cascade fill d
  double* bucket = nullptr;        ///< cascade bucket pointer N
  double depth = 0.0;              ///< cascade depth D, shared by every lane
  double buckets = 0.0;            ///< cascade bucket count K, shared by every lane
  double* last_avg = nullptr;      ///< most recent completed window average
  unsigned char* changed = nullptr;  ///< out: lane escalated/deescalated/triggered
  unsigned char* trig = nullptr;     ///< out: lane triggered rejuvenation
};

/// One row for a bank of per-observation cascade detectors (Static): the
/// window members of WindowCascadeRow are unused.
struct StaticRow {
  std::size_t lanes = 0;
  const double* values = nullptr;
  const double* target = nullptr;
  double* fill = nullptr;
  double* bucket = nullptr;
  double depth = 0.0;
  double buckets = 0.0;
  double* last_avg = nullptr;
  unsigned char* changed = nullptr;
  unsigned char* trig = nullptr;
};

/// One row for a bank of pure window-threshold detectors (CLTA): the
/// threshold is fixed for the detector's lifetime, so there is no fixup.
struct CltaRow {
  std::size_t lanes = 0;
  const double* values = nullptr;
  double* sum = nullptr;
  double* count = nullptr;
  double* wcur = nullptr;
  const double* wnext = nullptr;
  const double* threshold = nullptr;
  double* last_avg = nullptr;
  unsigned char* trig = nullptr;
};

// ---------------------------------------------------------------------------
// Portable kernels. Straight-line bodies with ternary selects only: the
// fallback on CPUs without the intrinsic ISA and the semantic reference for
// the intrinsic versions. Compilers do not vectorize them (see the top of
// this file). `first` lets the intrinsic kernels reuse them for the ragged
// tail (lanes % vector width).
// ---------------------------------------------------------------------------

inline std::uint32_t window_cascade_row_portable(const WindowCascadeRow& r,
                                                 std::size_t first = 0) {
  // The flag stores go through unsigned char*, which aliases everything; the
  // hoisted locals keep the compiler from reloading every member pointer on
  // each iteration.
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  double* const sum = r.sum;
  double* const count = r.count;
  double* const wcur = r.wcur;
  const double* const wnext = r.wnext;
  const double* const target = r.target;
  double* const fill = r.fill;
  double* const bucket = r.bucket;
  const double depth = r.depth;
  const double buckets = r.buckets;
  double* const last_avg = r.last_avg;
  unsigned char* const changed = r.changed;
  unsigned char* const trig = r.trig;
  std::uint32_t any = 0;
  for (std::size_t l = first; l < lanes; ++l) {
    const double s = sum[l] + values[l];
    const double c = count[l] + 1.0;
    const double w = wcur[l];
    const bool done = c == w;
    const double avg = s / w;
    const bool exceeded = done && avg > target[l];
    double f = fill[l] + (done ? (exceeded ? 1.0 : -1.0) : 0.0);
    double b = bucket[l];
    const bool esc = f > depth;
    f = esc ? 0.0 : f;
    b = esc ? b + 1.0 : b;
    const bool deesc = f < 0.0 && b > 0.0;
    f = deesc ? depth : f;
    b = deesc ? b - 1.0 : b;
    f = f < 0.0 ? 0.0 : f;
    const bool hit = b == buckets;
    f = hit ? 0.0 : f;
    b = hit ? 0.0 : b;
    sum[l] = done ? 0.0 : s;
    count[l] = done ? 0.0 : c;
    wcur[l] = done ? wnext[l] : w;
    last_avg[l] = done ? avg : last_avg[l];
    fill[l] = f;
    bucket[l] = b;
    const bool ch = esc || deesc || hit;
    changed[l] = static_cast<unsigned char>(ch);
    trig[l] = static_cast<unsigned char>(hit);
    any |= (ch ? kAnyChanged : 0u) | (hit ? kAnyTriggered : 0u);
  }
  return any;
}

inline std::uint32_t static_row_portable(const StaticRow& r, std::size_t first = 0) {
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  const double* const target = r.target;
  double* const fill = r.fill;
  double* const bucket = r.bucket;
  const double depth = r.depth;
  const double buckets = r.buckets;
  double* const last_avg = r.last_avg;
  unsigned char* const changed = r.changed;
  unsigned char* const trig = r.trig;
  std::uint32_t any = 0;
  for (std::size_t l = first; l < lanes; ++l) {
    const double value = values[l];
    const bool exceeded = value > target[l];
    double f = fill[l] + (exceeded ? 1.0 : -1.0);
    double b = bucket[l];
    const bool esc = f > depth;
    f = esc ? 0.0 : f;
    b = esc ? b + 1.0 : b;
    const bool deesc = f < 0.0 && b > 0.0;
    f = deesc ? depth : f;
    b = deesc ? b - 1.0 : b;
    f = f < 0.0 ? 0.0 : f;
    const bool hit = b == buckets;
    f = hit ? 0.0 : f;
    b = hit ? 0.0 : b;
    last_avg[l] = value;
    fill[l] = f;
    bucket[l] = b;
    const bool ch = esc || deesc || hit;
    changed[l] = static_cast<unsigned char>(ch);
    trig[l] = static_cast<unsigned char>(hit);
    any |= (ch ? kAnyChanged : 0u) | (hit ? kAnyTriggered : 0u);
  }
  return any;
}

inline std::uint32_t clta_row_portable(const CltaRow& r, std::size_t first = 0) {
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  double* const sum = r.sum;
  double* const count = r.count;
  double* const wcur = r.wcur;
  const double* const wnext = r.wnext;
  const double* const threshold = r.threshold;
  double* const last_avg = r.last_avg;
  unsigned char* const trig = r.trig;
  std::uint32_t any = 0;
  for (std::size_t l = first; l < lanes; ++l) {
    const double s = sum[l] + values[l];
    const double c = count[l] + 1.0;
    const double w = wcur[l];
    const bool done = c == w;
    const double avg = s / w;
    const bool hit = done && avg > threshold[l];
    sum[l] = done ? 0.0 : s;
    count[l] = done ? 0.0 : c;
    wcur[l] = done ? wnext[l] : w;
    last_avg[l] = done ? avg : last_avg[l];
    trig[l] = static_cast<unsigned char>(hit);
    any |= hit ? kAnyTriggered : 0u;
  }
  return any;
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86-64). Four lanes per vector; add/div/compare/blend are
// all per-element IEEE operations, so each lane computes bit-identically to
// the portable loop. Per-function target attributes keep the rest of the
// binary on the baseline ISA; callers gate on __builtin_cpu_supports.
// ---------------------------------------------------------------------------

#if defined(REJUV_BANK_AVX2)

namespace detail {

/// Flag bytes for a 4-bit movemask: entry m holds one byte per mask bit,
/// little-endian, so a single 4-byte store materializes four lane flags
/// (bit-unpacking the mask in scalar code costs more than the whole vector
/// body on small cores).
alignas(64) inline constexpr std::uint32_t kMaskBytes[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u};

/// Writes 4 mask bits as flag bytes in one word store.
inline void store_flags(unsigned char* out, std::size_t l, int mask) {
  const std::uint32_t word = kMaskBytes[mask & 0xF];
  std::memcpy(out + l, &word, sizeof(word));
}

}  // namespace detail

__attribute__((target("avx2"))) inline std::uint32_t window_cascade_row_avx2(
    const WindowCascadeRow& r) {
  // Hoisted member pointers: the flag stores alias everything through
  // unsigned char*, and without the locals the compiler reloads all eleven
  // pointers from the struct on every iteration. D and K are the same for
  // every lane, so they are broadcast once per row.
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  double* const sum = r.sum;
  double* const count = r.count;
  double* const wcur = r.wcur;
  const double* const wnext = r.wnext;
  const double* const target = r.target;
  double* const fill = r.fill;
  double* const bucket = r.bucket;
  double* const last_avg = r.last_avg;
  unsigned char* const changed_p = r.changed;
  unsigned char* const trig_p = r.trig;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d depth = _mm256_set1_pd(r.depth);
  const __m256d buckets = _mm256_set1_pd(r.buckets);
  unsigned any_changed = 0;
  unsigned any_trig = 0;
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    const __m256d s = _mm256_add_pd(_mm256_loadu_pd(sum + l), _mm256_loadu_pd(values + l));
    const __m256d c = _mm256_add_pd(_mm256_loadu_pd(count + l), one);
    const __m256d w = _mm256_loadu_pd(wcur + l);
    const __m256d done = _mm256_cmp_pd(c, w, _CMP_EQ_OQ);
    const __m256d avg = _mm256_div_pd(s, w);
    const __m256d exceeded =
        _mm256_and_pd(done, _mm256_cmp_pd(avg, _mm256_loadu_pd(target + l), _CMP_GT_OQ));
    // delta = done ? (exceeded ? +1 : -1) : 0
    const __m256d delta = _mm256_and_pd(done, _mm256_blendv_pd(neg_one, one, exceeded));
    __m256d f = _mm256_add_pd(_mm256_loadu_pd(fill + l), delta);
    __m256d b = _mm256_loadu_pd(bucket + l);
    const __m256d esc = _mm256_cmp_pd(f, depth, _CMP_GT_OQ);
    f = _mm256_andnot_pd(esc, f);
    b = _mm256_add_pd(b, _mm256_and_pd(esc, one));
    const __m256d deesc = _mm256_and_pd(_mm256_cmp_pd(f, zero, _CMP_LT_OQ),
                                        _mm256_cmp_pd(b, zero, _CMP_GT_OQ));
    f = _mm256_blendv_pd(f, depth, deesc);
    b = _mm256_sub_pd(b, _mm256_and_pd(deesc, one));
    f = _mm256_max_pd(f, zero);
    const __m256d hit = _mm256_cmp_pd(b, buckets, _CMP_EQ_OQ);
    f = _mm256_andnot_pd(hit, f);
    b = _mm256_andnot_pd(hit, b);
    _mm256_storeu_pd(sum + l, _mm256_andnot_pd(done, s));
    _mm256_storeu_pd(count + l, _mm256_andnot_pd(done, c));
    _mm256_storeu_pd(wcur + l, _mm256_blendv_pd(w, _mm256_loadu_pd(wnext + l), done));
    _mm256_storeu_pd(last_avg + l,
                     _mm256_blendv_pd(_mm256_loadu_pd(last_avg + l), avg, done));
    _mm256_storeu_pd(fill + l, f);
    _mm256_storeu_pd(bucket + l, b);
    const __m256d changed = _mm256_or_pd(_mm256_or_pd(esc, deesc), hit);
    const int cm = _mm256_movemask_pd(changed);
    const int tm = _mm256_movemask_pd(hit);
    detail::store_flags(changed_p, l, cm);
    detail::store_flags(trig_p, l, tm);
    any_changed |= static_cast<unsigned>(cm);
    any_trig |= static_cast<unsigned>(tm);
  }
  const std::uint32_t any = (any_changed != 0 ? kAnyChanged : 0u) |
                            (any_trig != 0 ? kAnyTriggered : 0u);
  return any | window_cascade_row_portable(r, l);
}

__attribute__((target("avx2"))) inline std::uint32_t static_row_avx2(const StaticRow& r) {
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  const double* const target = r.target;
  double* const fill = r.fill;
  double* const bucket = r.bucket;
  double* const last_avg = r.last_avg;
  unsigned char* const changed_p = r.changed;
  unsigned char* const trig_p = r.trig;
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d depth = _mm256_set1_pd(r.depth);
  const __m256d buckets = _mm256_set1_pd(r.buckets);
  unsigned any_changed = 0;
  unsigned any_trig = 0;
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    const __m256d v = _mm256_loadu_pd(values + l);
    const __m256d exceeded = _mm256_cmp_pd(v, _mm256_loadu_pd(target + l), _CMP_GT_OQ);
    const __m256d delta = _mm256_blendv_pd(neg_one, one, exceeded);
    __m256d f = _mm256_add_pd(_mm256_loadu_pd(fill + l), delta);
    __m256d b = _mm256_loadu_pd(bucket + l);
    const __m256d esc = _mm256_cmp_pd(f, depth, _CMP_GT_OQ);
    f = _mm256_andnot_pd(esc, f);
    b = _mm256_add_pd(b, _mm256_and_pd(esc, one));
    const __m256d deesc = _mm256_and_pd(_mm256_cmp_pd(f, zero, _CMP_LT_OQ),
                                        _mm256_cmp_pd(b, zero, _CMP_GT_OQ));
    f = _mm256_blendv_pd(f, depth, deesc);
    b = _mm256_sub_pd(b, _mm256_and_pd(deesc, one));
    f = _mm256_max_pd(f, zero);
    const __m256d hit = _mm256_cmp_pd(b, buckets, _CMP_EQ_OQ);
    f = _mm256_andnot_pd(hit, f);
    b = _mm256_andnot_pd(hit, b);
    _mm256_storeu_pd(last_avg + l, v);
    _mm256_storeu_pd(fill + l, f);
    _mm256_storeu_pd(bucket + l, b);
    const __m256d changed = _mm256_or_pd(_mm256_or_pd(esc, deesc), hit);
    const int cm = _mm256_movemask_pd(changed);
    const int tm = _mm256_movemask_pd(hit);
    detail::store_flags(changed_p, l, cm);
    detail::store_flags(trig_p, l, tm);
    any_changed |= static_cast<unsigned>(cm);
    any_trig |= static_cast<unsigned>(tm);
  }
  const std::uint32_t any = (any_changed != 0 ? kAnyChanged : 0u) |
                            (any_trig != 0 ? kAnyTriggered : 0u);
  return any | static_row_portable(r, l);
}

__attribute__((target("avx2"))) inline std::uint32_t clta_row_avx2(const CltaRow& r) {
  const std::size_t lanes = r.lanes;
  const double* const values = r.values;
  double* const sum = r.sum;
  double* const count = r.count;
  double* const wcur = r.wcur;
  const double* const wnext = r.wnext;
  const double* const threshold = r.threshold;
  double* const last_avg = r.last_avg;
  unsigned char* const trig_p = r.trig;
  const __m256d one = _mm256_set1_pd(1.0);
  unsigned any_trig = 0;
  std::size_t l = 0;
  for (; l + 4 <= lanes; l += 4) {
    const __m256d s = _mm256_add_pd(_mm256_loadu_pd(sum + l), _mm256_loadu_pd(values + l));
    const __m256d c = _mm256_add_pd(_mm256_loadu_pd(count + l), one);
    const __m256d w = _mm256_loadu_pd(wcur + l);
    const __m256d done = _mm256_cmp_pd(c, w, _CMP_EQ_OQ);
    const __m256d avg = _mm256_div_pd(s, w);
    const __m256d hit =
        _mm256_and_pd(done, _mm256_cmp_pd(avg, _mm256_loadu_pd(threshold + l), _CMP_GT_OQ));
    _mm256_storeu_pd(sum + l, _mm256_andnot_pd(done, s));
    _mm256_storeu_pd(count + l, _mm256_andnot_pd(done, c));
    _mm256_storeu_pd(wcur + l, _mm256_blendv_pd(w, _mm256_loadu_pd(wnext + l), done));
    _mm256_storeu_pd(last_avg + l,
                     _mm256_blendv_pd(_mm256_loadu_pd(last_avg + l), avg, done));
    const int tm = _mm256_movemask_pd(hit);
    detail::store_flags(trig_p, l, tm);
    any_trig |= static_cast<unsigned>(tm);
  }
  const std::uint32_t any = any_trig != 0 ? kAnyTriggered : 0u;
  return any | clta_row_portable(r, l);
}

#endif  // REJUV_BANK_AVX2

// ---------------------------------------------------------------------------
// NEON kernels (aarch64). Two lanes per vector, same per-element IEEE
// operations. Only the window kernel is written in intrinsics — the cascade
// families run the portable loop, which is not vectorized on x86-64 (see the
// top of this file) and has not been measured on aarch64.
// ---------------------------------------------------------------------------

#if defined(REJUV_BANK_NEON)

inline std::uint32_t clta_row_neon(const CltaRow& r) {
  const float64x2_t one = vdupq_n_f64(1.0);
  const float64x2_t zero = vdupq_n_f64(0.0);
  std::uint32_t any = 0;
  std::size_t l = 0;
  for (; l + 2 <= r.lanes; l += 2) {
    const float64x2_t s = vaddq_f64(vld1q_f64(r.sum + l), vld1q_f64(r.values + l));
    const float64x2_t c = vaddq_f64(vld1q_f64(r.count + l), one);
    const float64x2_t w = vld1q_f64(r.wcur + l);
    const uint64x2_t done = vceqq_f64(c, w);
    const float64x2_t avg = vdivq_f64(s, w);
    const uint64x2_t hit = vandq_u64(done, vcgtq_f64(avg, vld1q_f64(r.threshold + l)));
    vst1q_f64(r.sum + l, vbslq_f64(done, zero, s));
    vst1q_f64(r.count + l, vbslq_f64(done, zero, c));
    vst1q_f64(r.wcur + l, vbslq_f64(done, vld1q_f64(r.wnext + l), w));
    vst1q_f64(r.last_avg + l, vbslq_f64(done, avg, vld1q_f64(r.last_avg + l)));
    const std::uint64_t t0 = vgetq_lane_u64(hit, 0);
    const std::uint64_t t1 = vgetq_lane_u64(hit, 1);
    r.trig[l + 0] = static_cast<unsigned char>(t0 != 0);
    r.trig[l + 1] = static_cast<unsigned char>(t1 != 0);
    any |= (t0 | t1) != 0 ? kAnyTriggered : 0u;
  }
  return any | clta_row_portable(r, l);
}

#endif  // REJUV_BANK_NEON

}  // namespace rejuv::core::bank_kernel
