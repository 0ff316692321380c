#pragma once

// Hot-path purity annotations.
//
// The repo's marquee performance property — the fused inference chain and
// the SweepService drain are allocation-free, lock-free, and throw-free in
// steady state — is enforced two ways:
//
//   * dynamically, by the counting-operator-new tests
//     (tests/test_serve_alloc.cpp, tests/test_inference_sweep.cpp), which
//     prove the property on the exact paths the tests execute, and
//   * statically, by tools/analyze/gpufreq_hotpath.py, which disassembles
//     the built static libraries, builds the symbol-level call graph, and
//     proves that NO path out of an annotated root reaches a forbidden
//     sink (operator new/malloc/free, __cxa_throw, pthread_mutex_lock,
//     write/fwrite/ostream, unlisted external calls, unvetted indirect
//     calls).
//
// GPUFREQ_HOT declares a function a hot-path root. It expands to a static
// string in a dedicated ELF section ("gpufreq_hotpath"), so the annotation
// survives into the compiled object with zero code-size or runtime cost
// and no compiler plugin: the analyzer recovers the root list with
// `readelf -p` and also writes it out as the build's hotpath_roots.txt
// manifest.
//
// Usage — first statement of the function definition, naming the function
// with its full qualification exactly as `c++filt` spells it (anonymous
// namespaces included):
//
//   void SweepService::drain_locked() {
//     GPUFREQ_HOT("gpufreq::serve::SweepService::drain_locked");
//     ...
//   }
//
// In a function template the annotation goes at namespace scope next to
// the template instead: GCC never emits a used static local of a template
// instantiation, so inside the body the root would silently vanish.
//
// Matching is by substring against the demangled symbol name, so one
// annotation also covers the function's compiler-generated clones
// ([clone .cold], .constprop, .isra) and any lambdas defined inside it
// (their mangled names embed the enclosing function) — which is how the
// bodies handed to parallel_for stay inside the verified surface.
//
// An annotation whose string matches no defined symbol fails the analyzer
// (exit 2), so renames cannot silently drop a root from the contract.
// The flip side — a justified exception for a sanctioned sink, e.g. the
// drain's queue handshake mutex — lives in tools/analyze/hotpath_allow.txt
// and must carry a written justification (see DESIGN.md §8).

#define GPUFREQ_HOT_SECTION_NAME "gpufreq_hotpath"

#if defined(__GNUC__) || defined(__clang__)
#define GPUFREQ_HOT_CAT2(a, b) a##b
#define GPUFREQ_HOT_CAT(a, b) GPUFREQ_HOT_CAT2(a, b)
// `used` keeps the string alive without any reference; `section` routes it
// into the marker section the analyzer strips back out. The initializer is
// a constant, so no static-init guard is emitted into the function.
#define GPUFREQ_HOT(qualified_name)                                       \
  static const char GPUFREQ_HOT_CAT(gpufreq_hot_root_, __COUNTER__)[]     \
      __attribute__((used, section(GPUFREQ_HOT_SECTION_NAME))) =          \
          qualified_name
#else
// Non-ELF / non-GNU toolchains: the annotation is inert (the analyzer only
// runs against GNU-toolchain artifacts anyway).
#define GPUFREQ_HOT(qualified_name) static_assert(true, "")
#endif
