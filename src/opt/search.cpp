#include "opt/search.hpp"

#include <algorithm>

#include "core/fmt.hpp"

namespace saclo::opt {

namespace {

using aol::Model;

/// The task consuming `array`, when there is exactly one consuming
/// port (the only shape fusion accepts anyway).
std::optional<std::size_t> sole_consumer(const Model& m, const std::string& array) {
  std::optional<std::size_t> found;
  std::size_t ports = 0;
  for (std::size_t t = 0; t < m.tasks().size(); ++t) {
    for (const aol::TiledPort& in : m.tasks()[t].inputs) {
      if (in.port.name == array) {
        ++ports;
        found = t;
      }
    }
  }
  if (ports != 1) return std::nullopt;
  return found;
}

bool is_terminal(const Model& m, const std::string& array) {
  return std::find(m.inputs().begin(), m.inputs().end(), array) != m.inputs().end() ||
         std::find(m.outputs().begin(), m.outputs().end(), array) != m.outputs().end();
}

}  // namespace

OptResult optimize(const aol::Model& model, const SearchOptions& options) {
  OptResult result{model, {}, predict_model_cost(model, options.device), {}};
  if (options.level <= 0) {
    result.after = result.before;
    return result;
  }
  Model cur = model;
  double cur_cost = result.before.total_us();
  // The direct attempt and every paving-change trial of a channel read
  // the same unchanged producer, and identical channels share a
  // producer geometry: each inverse map is built once per search.
  InverseMapCache inverse_maps;

  // Fusion fixpoint: for every intermediate array, try to fuse its
  // producer into its consumer — directly, or after an enabling paving
  // change on the consumer (splitting a repetition dimension so the
  // consumer's read footprint becomes whole producer instances).
  bool changed = true;
  while (changed) {
    changed = false;
    // Array names are iterated in map order; snapshot them because an
    // adopted rewrite replaces `cur`.
    std::vector<std::string> mids;
    for (const auto& [name, shape] : cur.arrays()) {
      if (!is_terminal(cur, name)) mids.push_back(name);
    }
    for (const std::string& mid : mids) {
      auto adopt = [&](Model candidate, std::vector<AppliedRewrite> rewrites) {
        const double cost = predict_model_cost(candidate, options.device).total_us();
        if (cost >= cur_cost) return false;
        cur = std::move(candidate);
        cur_cost = cost;
        for (AppliedRewrite& r : rewrites) result.rewrites.push_back(std::move(r));
        changed = true;
        return true;
      };
      RewriteResult direct = try_fuse(cur, mid, &inverse_maps);
      if (direct.legality.ok) {
        if (adopt(std::move(*direct.model),
                  {{"fuse", cat("fused producer of '", mid, "' into its consumer")}})) {
          break;
        }
        continue;
      }
      // Enabling paving change: split a consumer repetition dimension
      // by the smallest factor that makes the fusion legal and cheaper.
      const auto consumer = sole_consumer(cur, mid);
      if (!consumer) continue;
      const std::string consumer_name = cur.tasks()[*consumer].name;
      const Shape consumer_rep = cur.tasks()[*consumer].repetition;
      bool adopted = false;
      for (std::size_t d = 0; d < consumer_rep.rank() && !adopted; ++d) {
        for (std::int64_t k = 2; k <= std::min(options.max_paving_factor, consumer_rep[d]);
             ++k) {
          if (consumer_rep[d] % k != 0) continue;
          RewriteResult pv = try_change_paving(cur, consumer_name, d, k, /*revalidate=*/false);
          if (!pv.legality.ok) continue;
          RewriteResult fz = try_fuse(*pv.model, mid, &inverse_maps);
          if (!fz.legality.ok) continue;
          if (adopt(std::move(*fz.model),
                    {{"paving_change", cat("split repetition dim ", d, " of '", consumer_name,
                                           "' by ", k)},
                     {"fuse", cat("fused producer of '", mid, "' into its consumer")}})) {
            adopted = true;
            break;
          }
        }
      }
      if (adopted) break;
    }
  }

  // Level 2: horizontal merges of independent tasks with identical
  // repetition spaces (one launch instead of two).
  if (options.level >= 2) {
    changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < cur.tasks().size() && !changed; ++i) {
        for (std::size_t j = i + 1; j < cur.tasks().size() && !changed; ++j) {
          const std::string na = cur.tasks()[i].name;
          const std::string nb = cur.tasks()[j].name;
          RewriteResult mg = try_merge(cur, na, nb);
          if (!mg.legality.ok) continue;
          const double cost = predict_model_cost(*mg.model, options.device).total_us();
          if (cost >= cur_cost) continue;
          cur = std::move(*mg.model);
          cur_cost = cost;
          result.rewrites.push_back({"merge", cat("merged '", na, "' and '", nb, "'")});
          changed = true;
        }
      }
    }
  }

  result.after = predict_model_cost(cur, options.device);
  result.model = std::move(cur);
  return result;
}

}  // namespace saclo::opt
