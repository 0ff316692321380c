#pragma once

#include <condition_variable>
#include <mutex>

// Portable clang thread-safety annotations (no-ops on GCC/MSVC, which
// simply ignore the attributes) plus the annotated Mutex/MutexLock
// wrappers that make them usable with libstdc++. Clang's analysis only
// understands lock/unlock functions that carry acquire/release attributes;
// libstdc++'s std::mutex and std::lock_guard are unannotated, so guarding
// state with them teaches the analyzer nothing. gpufreq code that protects
// shared state therefore uses gpufreq::Mutex + gpufreq::MutexLock and
// declares the protected members GPUFREQ_GUARDED_BY(mutex_); a clang build
// (CI's clang job, or any local clang) then rejects every unlocked access
// at compile time via -Wthread-safety (enabled in gpufreq_warnings).
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define GPUFREQ_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GPUFREQ_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a lockable capability ("mutex" names the kind).
#define GPUFREQ_CAPABILITY(x) GPUFREQ_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires in its constructor and releases in
/// its destructor.
#define GPUFREQ_SCOPED_CAPABILITY GPUFREQ_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define GPUFREQ_GUARDED_BY(x) GPUFREQ_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define GPUFREQ_PT_GUARDED_BY(x) GPUFREQ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function may only be called while holding the listed capabilities.
#define GPUFREQ_REQUIRES(...) \
  GPUFREQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities and holds them on return.
#define GPUFREQ_ACQUIRE(...) \
  GPUFREQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry).
#define GPUFREQ_RELEASE(...) \
  GPUFREQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts acquisition; first argument is the success value.
#define GPUFREQ_TRY_ACQUIRE(...) \
  GPUFREQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must NOT be called while holding the listed capabilities
/// (deadlock prevention for non-reentrant locks).
#define GPUFREQ_EXCLUDES(...) GPUFREQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime no-op that tells the analysis the capability is held here.
/// Needed inside lambdas (condition-variable predicates): the analysis is
/// intraprocedural, so a lambda body does not inherit the caller's lock set.
#define GPUFREQ_ASSERT_CAPABILITY(x) \
  GPUFREQ_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define GPUFREQ_RETURN_CAPABILITY(x) GPUFREQ_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use needs a
/// comment explaining why the locking cannot be expressed.
#define GPUFREQ_NO_THREAD_SAFETY_ANALYSIS \
  GPUFREQ_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace gpufreq {

/// std::mutex with capability annotations. Use together with
/// GPUFREQ_GUARDED_BY on every member the mutex protects.
class GPUFREQ_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GPUFREQ_ACQUIRE() { m_.lock(); }
  void unlock() GPUFREQ_RELEASE() { m_.unlock(); }
  bool try_lock() GPUFREQ_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// Assert (to the static analysis only; no runtime effect) that this
  /// mutex is held. For condition-variable wait predicates.
  void assert_held() const GPUFREQ_ASSERT_CAPABILITY(this) {}

  /// The wrapped mutex, for std::condition_variable interop.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// RAII lock for gpufreq::Mutex (the annotated std::lock_guard /
/// std::unique_lock replacement). It holds the Mutex itself, not a
/// std::unique_lock, so releasing it is std::mutex::unlock, which cannot
/// throw (unique_lock::unlock reaches std::__throw_system_error). `wait`
/// adopts the held mutex into a std::unique_lock only for the span of one
/// condition-variable wait; reference guarded state inside `pred` after
/// Mutex::assert_held().
class GPUFREQ_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) GPUFREQ_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() GPUFREQ_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// cv.wait(pred) on the held mutex; held again on return.
  template <typename Predicate>
  void wait(std::condition_variable& cv, Predicate pred) {
    std::unique_lock<std::mutex> lock(m_.native(), std::adopt_lock);
    // Hand the mutex back on every exit, a throwing pred included: this
    // MutexLock, not `lock`, unlocks it.
    struct Disown {
      std::unique_lock<std::mutex>& lock;
      ~Disown() { lock.release(); }
    } disown{lock};
    cv.wait(lock, pred);
  }

 private:
  Mutex& m_;
};

}  // namespace gpufreq
