#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "arrayol/model.hpp"
#include "core/mapped.hpp"

namespace saclo::opt {

/// Raised when the optimizer is driven with malformed arguments or an
/// accepted rewrite produces a model that fails validation (which would
/// be a bug in the rewrite, not in the caller's model).
class OptError : public Error {
 public:
  using Error::Error;
};

/// The verdict of a legality check: either the rewrite is provably
/// semantics-preserving, or `reason` says which precondition failed.
/// Rejections are diagnoses, not errors — the search layer enumerates
/// candidates and expects most of them to be refused.
struct Legality {
  bool ok = false;
  std::string reason;

  static Legality yes() { return Legality{true, {}}; }
  static Legality no(std::string why) { return Legality{false, std::move(why)}; }
};

/// Outcome of attempting one elementary transformation: the legality
/// verdict, plus the rewritten (already re-validated) model when legal.
struct RewriteResult {
  Legality legality;
  std::optional<aol::Model> model;
};

/// Paving change (Boulet & Feautrier): split factor `factor` off
/// repetition dimension `dim` of `task_name`, moving it into the
/// patterns. The new op is the original one substituted `factor` times,
/// once per split instance of a (smaller) repetition point; every port
/// pattern gains a leading dimension of extent `factor` whose fitting
/// column is the old paving column `dim`. Legal whenever `factor` divides the
/// repetition extent — the rewrite is a bijection on (repetition,
/// pattern) index pairs, so the set of addressed elements and the
/// values written are unchanged.
/// `revalidate` controls whether the rewritten model goes through the
/// full Model::validate() (which re-proves the exact-partition property
/// element by element — O(array size)). The search disables it for
/// *enabling* paving changes whose fusion result is validated anyway;
/// standalone callers should keep the default.
RewriteResult try_change_paving(const aol::Model& model, const std::string& task_name,
                                std::size_t dim, std::int64_t factor, bool revalidate = true);

/// The inverse of a producer's output tiler over its whole array: for
/// every element (row-major), the repetition point and the pattern slot
/// that write it. Output tilers are exact partitions, so both are
/// unique. The tables are as large as the array (6 MB each for a paper
/// frame's intermediate), so they live in mappings of their own
/// (MappedArray), out of the heap the search's model nodes grow in.
struct InverseMap {
  MappedArray<std::int64_t> rep;  ///< linear repetition index per element
  MappedArray<std::int64_t> pat;  ///< linear pattern index per element
};

/// Inverse maps shared by the fusion attempts of one search. A map
/// depends only on the output port's tiler and pattern, the producer's
/// repetition space and the array shape, so that is the key — never a
/// task or array name: a producer left alone by a paving change of its
/// consumer keeps its map, and identical channels share one. Reuse only
/// skips rebuilding the map; every fusion attempt still verifies its
/// full index space.
class InverseMapCache {
 public:
  const InverseMap& get(const aol::TiledPort& out, const Shape& array_shape,
                        const Shape& repetition);

 private:
  struct Entry {
    TilerSpec tiler;
    Shape pattern;
    Shape repetition;
    Shape array;
    InverseMap map;
  };
  std::deque<Entry> entries_;  // a deque keeps handed-out references stable
};

/// Fusion (producer/consumer): eliminate intermediate array
/// `mid_array` by inlining its producer task into its (single)
/// consumer. Legal only when the consumer's read footprint of the
/// intermediate is, per consumer repetition point, a rectangular set of
/// whole producer instances whose index is an affine function of the
/// consumer's repetition and pattern indices — this is checked
/// exhaustively against the actual tilers, not assumed. The fused task
/// re-tiles the producer's inputs directly against the consumer's
/// repetition space and re-computes the needed producer instances in
/// registers (the paper's on-chip-reuse argument for fewer, larger
/// kernels): its op substitutes the producer's once per instance and
/// binds the consumer's reads of the intermediate to their results.
/// `cache`, when given, supplies the producer's inverse map (see
/// InverseMapCache); the verdict and the rewrite are the same either way.
RewriteResult try_fuse(const aol::Model& model, const std::string& mid_array,
                       InverseMapCache* cache = nullptr);

/// Task merge (horizontal): combine two independent tasks with
/// identical repetition spaces into one kernel-sized task. Legal when
/// neither task (transitively) depends on the other; ports are
/// concatenated, and so are the ops, which run back to back per
/// repetition point.
RewriteResult try_merge(const aol::Model& model, const std::string& task_a,
                        const std::string& task_b);

}  // namespace saclo::opt
