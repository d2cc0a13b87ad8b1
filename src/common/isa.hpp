// Runtime instruction-set dispatch, shared by every kernel that ships
// portable, AVX2 and AVX-512 builds of one algorithm (the packed GEMM
// micro-kernels, the fixed-order Bessel lanes).
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#define GSX_X86_DISPATCH 1
#define GSX_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define GSX_TARGET_AVX512 __attribute__((target("avx512f,avx512dq,avx512vl,avx512bw,fma")))
#else
#define GSX_X86_DISPATCH 0
#endif

namespace gsx {

/// Instruction set a dispatched kernel runs with. The value indexes per-ISA
/// function tables.
enum class Isa : int { Portable = 0, Avx2 = 1, Avx512 = 2 };

/// The widest ISA this CPU supports, capped by the GSX_GEMM_ISA environment
/// variable ("portable", "avx2" or "avx512"; it never raises the ISA past
/// what the CPU supports). Resolved once per process.
[[nodiscard]] Isa active_isa() noexcept;

/// "avx512", "avx2" or "portable".
[[nodiscard]] const char* isa_name(Isa isa) noexcept;

}  // namespace gsx
