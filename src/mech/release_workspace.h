// Scratch buffers for histogram releases. A warm release of a cached
// plan needs the same buffers every time: the padded grid of a
// Privelet run, the noisy transformed database of a tree transform,
// the slab strategy's estimates and tables, the summed-area table of a
// range workload. A ReleaseWorkspace holds them between releases, so
// after the first release of a given size a release that is passed the
// same workspace allocates nothing for them.
//
// A workspace serves one release at a time. Each thread has one
// (ForThisThread), which the serving layer and the allocating forms of
// the release calls use. Each field has one owner in the release
// pipeline, named in its comment, so nested steps (a tree transform
// around its inner mechanism, a grid line around its Privelet run)
// never write a buffer another step still reads, even when both reach
// the same workspace.

#ifndef BLOWFISH_MECH_RELEASE_WORKSPACE_H_
#define BLOWFISH_MECH_RELEASE_WORKSPACE_H_

#include <vector>

#include "linalg/vector_ops.h"
#include "mech/consistency.h"

namespace blowfish {

/// One vector per release system of the slab strategy
/// (core/mechanisms_kd.h): external lines, row slabs, column slabs.
/// A submit's noisy estimates and their summed-area tables both take
/// this shape.
struct SlabReleases {
  Vector ext, row, col;
};

/// \brief Reusable buffers for one release at a time.
struct ReleaseWorkspace {
  /// PriveletMechanism: the padded grid, one line and the Haar scratch.
  Vector padded, line, haar;
  /// One group gathered for a Privelet release in place: a grid-matrix
  /// line, a slab external line or a column slab.
  Vector group;
  /// The noisy transformed database x̃_G of a tree or grid-matrix
  /// release, the PAVA stack that projects it, and P_G x̃_G over the
  /// kept vertices, which reconstruction lifts to x̂.
  Vector noisy;
  std::vector<PavaBlock> pava;
  Vector kept;
  /// GridThetaRangeMechanism: the grid of black cells, one submit's
  /// estimates and their summed-area tables.
  Vector cells;
  SlabReleases slab_estimates, slab_tables;
  /// The released histogram x̂ and the summed-area table of a range
  /// workload answered from it (the serving layer's outputs).
  Vector estimate, sat;

  /// The calling thread's workspace. It keeps the largest buffers its
  /// thread has released with, and is never shared across threads.
  static ReleaseWorkspace& ForThisThread() {
    thread_local ReleaseWorkspace ws;
    return ws;
  }
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_RELEASE_WORKSPACE_H_
