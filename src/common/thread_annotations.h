// Clang thread-safety-analysis annotations (no-ops off clang).
//
// The engine's concurrency story is lock-discipline conventions —
// "slots is only touched under its shard's mu", "EnqueueLocked
// requires mu_ held" — that used to live in comments. These
// macros turn the conventions into compiler-checked contracts: under
// `clang -Wthread-safety` (the CI `clang-thread-safety` job builds
// with `-Werror=thread-safety`), reading a GUARDED_BY member without
// its mutex, or calling a REQUIRES function without the capability,
// is a build error. Under gcc (the default toolchain) every macro
// expands to nothing, so annotations cost nothing and cannot change
// codegen.
//
// The std::mutex / std::lock_guard / std::unique_lock /
// std::shared_mutex types are themselves annotated only in libc++
// (with -D_LIBCPP_ENABLE_THREAD_SAFETY_ANNOTATIONS); the CI job
// builds against libc++ for exactly that reason. Functions whose
// locking cannot be expressed statically — dynamic shard selection,
// conditional lock arrays, lock handoff through a unique_lock
// pointer — carry NO_THREAD_SAFETY_ANALYSIS with a comment naming the
// invariant and what enforces it instead (usually a BF_DCHECK or a
// dp_lint rule).

#ifndef BLOWFISH_COMMON_THREAD_ANNOTATIONS_H_
#define BLOWFISH_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define BF_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define BF_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

/// Member is protected by the given capability (usually a sibling
/// mutex member): every access must hold it.
#ifndef GUARDED_BY
#define GUARDED_BY(x) BF_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))
#endif

/// Pointer member whose *pointee* is protected by the capability.
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) BF_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))
#endif

/// Function requires the capability held exclusively on entry (and
/// leaves it held). The "Locked" suffix convention maps to this.
#ifndef REQUIRES
#define REQUIRES(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#endif

/// Function requires the capability held at least shared on entry.
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))
#endif

/// Function acquires the capability (exclusively) and does not release
/// it before returning.
#ifndef ACQUIRE
#define ACQUIRE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#endif

#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#endif

/// Function releases the capability (held on entry, released on exit).
#ifndef RELEASE
#define RELEASE(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#endif

#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))
#endif

/// Function must NOT be called with the capability held (deadlock
/// guard: it acquires the lock itself, or hands work to something
/// that does).
#ifndef EXCLUDES
#define EXCLUDES(...) \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))
#endif

/// Type is a lockable capability (for hand-rolled mutex wrappers).
#ifndef CAPABILITY
#define CAPABILITY(x) BF_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))
#endif

/// RAII type that acquires in its constructor, releases in its
/// destructor.
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY BF_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)
#endif

/// Function's return value is the capability guarding the object.
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) BF_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))
#endif

/// Escape hatch: the function's locking is correct but inexpressible
/// (dynamic shard selection, conditional lock arrays, lock handoff
/// through pointers). Every use must carry a comment naming the
/// invariant and what enforces it instead.
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS \
  BF_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)
#endif

#endif  // BLOWFISH_COMMON_THREAD_ANNOTATIONS_H_
