#include "opt/transform.hpp"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/fmt.hpp"

namespace saclo::opt {

namespace {

using aol::Model;
using aol::RepetitiveTask;
using aol::TiledPort;

std::optional<std::size_t> find_task(const Model& m, const std::string& name) {
  for (std::size_t i = 0; i < m.tasks().size(); ++i) {
    if (m.tasks()[i].name == name) return i;
  }
  return std::nullopt;
}

/// Rebuilds a model with some tasks/arrays removed and replacement
/// tasks appended. Model has no removal API on purpose (it is a
/// validated value), so every rewrite reconstructs and re-validates.
Model rebuild(const Model& m, const std::vector<std::size_t>& drop_tasks,
              const std::vector<std::string>& drop_arrays,
              std::vector<RepetitiveTask> replacements) {
  Model out(m.name());
  auto dropped = [&](const std::string& a) {
    return std::find(drop_arrays.begin(), drop_arrays.end(), a) != drop_arrays.end();
  };
  for (const auto& [name, shape] : m.arrays()) {
    if (!dropped(name)) out.add_array(name, shape);
  }
  for (const std::string& in : m.inputs()) out.mark_input(in);
  for (const std::string& o : m.outputs()) out.mark_output(o);
  for (std::size_t i = 0; i < m.tasks().size(); ++i) {
    if (std::find(drop_tasks.begin(), drop_tasks.end(), i) != drop_tasks.end()) continue;
    out.add_task(m.tasks()[i]);
  }
  for (RepetitiveTask& t : replacements) out.add_task(std::move(t));
  return out;
}

/// A rewrite that passed its legality check must yield a valid,
/// schedulable model — anything else is a bug in the rewrite itself.
RewriteResult accept(Model rewritten, const char* kind, bool revalidate = true) {
  try {
    if (revalidate) rewritten.validate();
    rewritten.schedule();
  } catch (const Error& e) {
    throw OptError(cat(kind, " produced an invalid model: ", e.what()));
  }
  RewriteResult r;
  r.legality = Legality::yes();
  r.model = std::move(rewritten);
  return r;
}

RewriteResult reject(std::string why) {
  RewriteResult r;
  r.legality = Legality::no(std::move(why));
  return r;
}

IntMat matmul(const IntMat& a, const IntMat& b) {
  IntMat c(a.rows(), b.cols(), 0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

std::vector<std::int64_t> pattern_sizes(const std::vector<TiledPort>& ports) {
  std::vector<std::int64_t> sizes;
  for (const TiledPort& p : ports) sizes.push_back(p.pattern.elements());
  return sizes;
}

/// Where element e of an op's ports lands in the ports of the op that
/// runs it `count` times, when every port grows a leading pattern
/// dimension of extent `count`: port p then holds count * sizes[p]
/// elements, instance s's from s * sizes[p] on.
std::int64_t instance_element(const std::vector<std::int64_t>& sizes, std::int64_t count,
                              std::int64_t s, std::int64_t e) {
  std::int64_t base = 0;
  for (const std::int64_t sz : sizes) {
    if (e < sz) return base + s * sz + e;
    e -= sz;
    base += count * sz;
  }
  throw OptError(cat("IP input element ", e, " past its ports"));
}

}  // namespace

const InverseMap& InverseMapCache::get(const TiledPort& out, const Shape& array_shape,
                                       const Shape& repetition) {
  for (const Entry& e : entries_) {
    if (e.tiler == out.tiler && e.pattern == out.pattern && e.repetition == repetition &&
        e.array == array_shape) {
      return e.map;
    }
  }
  Entry& e = entries_.emplace_back(Entry{out.tiler, out.pattern, repetition, array_shape, {}});
  const auto n = static_cast<std::size_t>(array_shape.elements());
  e.map.rep = MappedArray<std::int64_t>(n);
  e.map.pat = MappedArray<std::int64_t>(n);
  const TilerWalk walk(out.tiler, array_shape, out.pattern, repetition);
  walk.for_each_instance([&](const Index&, std::int64_t r_lin, const Index& ref) {
    for (std::int64_t p = 0; p < walk.pattern_elements(); ++p) {
      const auto el = static_cast<std::size_t>(walk.element(ref, p));
      e.map.rep[el] = r_lin;
      e.map.pat[el] = p;
    }
    return true;
  });
  return e.map;
}

RewriteResult try_change_paving(const Model& model, const std::string& task_name,
                                std::size_t dim, std::int64_t factor, bool revalidate) {
  const auto ti = find_task(model, task_name);
  if (!ti) return reject(cat("paving change: no task named '", task_name, "'"));
  const RepetitiveTask& task = model.tasks()[*ti];
  if (dim >= task.repetition.rank()) {
    return reject(cat("paving change on ", task_name, ": repetition ",
                      task.repetition.to_string(), " has no dimension ", dim));
  }
  if (factor < 2) {
    return reject(cat("paving change on ", task_name, ": factor ", factor,
                      " must be at least 2"));
  }
  if (task.repetition[dim] % factor != 0) {
    return reject(cat("paving change on ", task_name, ": factor ", factor,
                      " does not divide repetition extent ", task.repetition[dim],
                      " of dimension ", dim));
  }

  RepetitiveTask nt;
  nt.name = task.name;
  Index rep_dims = task.repetition.dims();
  rep_dims[dim] /= factor;
  nt.repetition = Shape(std::move(rep_dims));

  // Every port grows a leading pattern dimension of extent `factor`
  // whose fitting column is the old paving column `dim`; the remaining
  // paving column is scaled by `factor`. The map (r, i) -> (r', (s, i))
  // with r[dim] = factor*r'[dim] + s is a bijection on index pairs that
  // addresses exactly the same array element, so coverage (and the
  // exact-partition property of output tilers) is preserved verbatim.
  auto rewrite_port = [&](const TiledPort& tp) {
    TiledPort np = tp;
    np.pattern = Shape({factor}).concat(tp.pattern);
    const std::size_t ar = tp.tiler.paving.rows();
    IntMat split_col(ar, 1, 0);
    for (std::size_t d = 0; d < ar; ++d) split_col.at(d, 0) = tp.tiler.paving.at(d, dim);
    np.tiler.fitting = split_col.hcat(tp.tiler.fitting);
    for (std::size_t d = 0; d < ar; ++d) np.tiler.paving.at(d, dim) *= factor;
    return np;
  };
  for (const TiledPort& p : task.inputs) nt.inputs.push_back(rewrite_port(p));
  for (const TiledPort& p : task.outputs) nt.outputs.push_back(rewrite_port(p));

  // The split op is the original one substituted once per instance s of
  // the new leading pattern dimension, reading and writing instance s's
  // elements of every port.
  const std::vector<std::int64_t> in_sizes = pattern_sizes(task.inputs);
  aol::IpBuilder ip;
  std::vector<std::vector<aol::IpValue>> outs;
  for (std::int64_t s = 0; s < factor; ++s) {
    outs.push_back(ip.inline_op(task.op, [&](std::int64_t e) {
      return ip.in(instance_element(in_sizes, factor, s, e));
    }));
  }
  std::size_t first = 0;
  for (const std::int64_t sz : pattern_sizes(task.outputs)) {
    for (const std::vector<aol::IpValue>& instance : outs) {
      for (std::int64_t k = 0; k < sz; ++k) ip.out(instance[first + static_cast<std::size_t>(k)]);
    }
    first += static_cast<std::size_t>(sz);
  }
  nt.op = ip.finish(cat(task.op.name, "_split", factor));

  return accept(rebuild(model, {*ti}, {}, {std::move(nt)}), "paving change", revalidate);
}

RewriteResult try_fuse(const Model& model, const std::string& mid_array,
                       InverseMapCache* cache) {
  if (!model.arrays().count(mid_array)) {
    return reject(cat("fuse: no array named '", mid_array, "'"));
  }
  if (std::find(model.outputs().begin(), model.outputs().end(), mid_array) !=
      model.outputs().end()) {
    return reject(cat("fuse: '", mid_array, "' is a model output and cannot be eliminated"));
  }
  const auto prod = model.producer_of(mid_array);
  if (!prod) {
    return reject(cat("fuse: '", mid_array, "' is a model input, not an intermediate"));
  }
  const RepetitiveTask& a = model.tasks()[*prod];
  if (a.outputs.size() != 1) {
    return reject(cat("fuse: producer '", a.name, "' has ", a.outputs.size(),
                      " output ports; only single-output producers can be inlined"));
  }
  std::size_t consumer = 0;
  std::size_t mid_port = 0;
  std::size_t consumer_ports = 0;
  for (std::size_t t = 0; t < model.tasks().size(); ++t) {
    for (std::size_t p = 0; p < model.tasks()[t].inputs.size(); ++p) {
      if (model.tasks()[t].inputs[p].port.name == mid_array) {
        ++consumer_ports;
        consumer = t;
        mid_port = p;
      }
    }
  }
  if (consumer_ports == 0) {
    return reject(cat("fuse: '", mid_array, "' has no consumer — dead intermediate"));
  }
  if (consumer_ports > 1) {
    return reject(cat("fuse: '", mid_array, "' is consumed through ", consumer_ports,
                      " ports; inlining would recompute the producer per consumer"));
  }
  if (consumer == *prod) {
    return reject(cat("fuse: '", mid_array, "' is produced and consumed by the same task"));
  }
  const RepetitiveTask& b = model.tasks()[consumer];

  const Shape& mid_shape = model.array_shape(mid_array);
  const TiledPort& a_out = a.outputs[0];
  const TiledPort& b_mid = b.inputs[mid_port];
  const std::int64_t pm = b_mid.pattern.elements();

  // Invert the producer's output tiler over the whole intermediate:
  // every element has exactly one (repetition, pattern) origin because
  // output tilers are exact partitions (validated single assignment).
  InverseMapCache local;
  const InverseMap& inv = (cache ? *cache : local).get(a_out, mid_shape, a.repetition);

  const std::size_t ra = a.repetition.rank();
  const std::size_t rb = b.repetition.rank();
  const std::size_t pmr = b_mid.pattern.rank();
  // rho(r_B, i_B) = which producer instance wrote the element the
  // consumer reads there; iota = which slot of that instance's pattern.
  auto rho = [&](const Index& rep_b, const Index& pat_b) {
    const std::int64_t e = mid_shape.linearize(b_mid.tiler.element_index(mid_shape, rep_b, pat_b));
    return std::pair<Index, std::int64_t>(
        a.repetition.delinearize(inv.rep[static_cast<std::size_t>(e)]),
        inv.pat[static_cast<std::size_t>(e)]);
  };
  const Index zero_r(rb, 0);
  const Index zero_p(pmr, 0);
  const Index rho00 = rho(zero_r, zero_p).first;

  // Probe the affine form rho = M*r_B + G*i_B + rho00 from unit steps,
  // then verify it exhaustively — the legality proof is the check over
  // the full index space, not the probe.
  IntMat M(ra, rb, 0);
  IntMat G(ra, pmr, 0);
  for (std::size_t j = 0; j < rb; ++j) {
    if (b.repetition[j] < 2) continue;
    Index r = zero_r;
    r[j] = 1;
    const Index rj = rho(r, zero_p).first;
    for (std::size_t d = 0; d < ra; ++d) M.at(d, j) = rj[d] - rho00[d];
  }
  for (std::size_t j = 0; j < pmr; ++j) {
    if (b_mid.pattern[j] < 2) continue;
    Index p = zero_p;
    p[j] = 1;
    const Index gj = rho(zero_r, p).first;
    for (std::size_t d = 0; d < ra; ++d) G.at(d, j) = gj[d] - rho00[d];
  }
  std::vector<std::int64_t> iota0(static_cast<std::size_t>(pm));
  {
    std::int64_t i_lin = 0;
    for_each_index(b_mid.pattern, [&](const Index& pat) {
      iota0[static_cast<std::size_t>(i_lin++)] = rho(zero_r, pat).second;
    });
  }
  // ArrayOL arrays are toroidal (tilers wrap with floor_mod), so the
  // instance index only needs to match the affine form modulo the
  // producer's repetition extents. Dimensions that actually wrap are
  // recorded: for those, the producer's input pavings must be periodic
  // over the wrap so the fused tiler's own final mod lands on the same
  // elements.
  std::vector<bool> wraps(ra, false);
  {
    // Per consumer-pattern element: the G·i contribution (precomputed,
    // row-major pm x ra), so the inner loop is pure integer arithmetic.
    std::vector<std::int64_t> gsum;
    gsum.reserve(static_cast<std::size_t>(pm) * ra);
    for_each_index(b_mid.pattern, [&](const Index& pat) {
      const Index g = G.mv(pat);
      gsum.insert(gsum.end(), g.begin(), g.end());
    });
    const TilerWalk fb(b_mid.tiler, mid_shape, b_mid.pattern, b.repetition);
    const Index a_rep_strides = a.repetition.strides();
    Index mr(ra, 0);
    std::optional<RewriteResult> refused;
    auto refuse = [&](const char* why, std::int64_t r_lin, std::int64_t i_lin) {
      refused = reject(cat("fuse ", a.name, " -> ", b.name, " over '", mid_array,
                           "': incompatible paving/fitting — ", why,
                           bracketed(b.repetition.delinearize(r_lin)), ", pattern ",
                           bracketed(b_mid.pattern.delinearize(i_lin))));
      return false;
    };
    fb.for_each_instance([&](const Index& rep, std::int64_t r_lin, const Index& ref) {
      for (std::size_t d = 0; d < ra; ++d) {
        std::int64_t v = rho00[d];
        for (std::size_t j = 0; j < rb; ++j) v += M.at(d, j) * rep[j];
        mr[d] = v;
      }
      for (std::int64_t i_lin = 0; i_lin < pm; ++i_lin) {
        const auto e = static_cast<std::size_t>(fb.element(ref, i_lin));
        const std::int64_t* g = gsum.data() + i_lin * static_cast<std::int64_t>(ra);
        std::int64_t rv_lin = inv.rep[e];
        for (std::size_t d = 0; d < ra; ++d) {
          const std::int64_t rv = rv_lin / a_rep_strides[d];
          rv_lin %= a_rep_strides[d];
          const std::int64_t diff = rv - (mr[d] + g[d]);
          if (diff == 0) continue;
          if (floor_mod(diff, a.repetition[d]) == 0) {
            wraps[d] = true;
            continue;
          }
          return refuse("producer instance index is not affine at repetition ", r_lin, i_lin);
        }
        if (inv.pat[e] != iota0[static_cast<std::size_t>(i_lin)]) {
          return refuse("pattern slot depends on the repetition index at ", r_lin, i_lin);
        }
      }
      return true;
    });
    if (refused) return std::move(*refused);
  }
  for (std::size_t d = 0; d < ra; ++d) {
    if (!wraps[d]) continue;
    for (const TiledPort& x : a.inputs) {
      const Shape& xs = model.array_shape(x.port.name);
      for (std::size_t ad = 0; ad < xs.rank(); ++ad) {
        if (floor_mod(a.repetition[d] * x.tiler.paving.at(ad, d), xs[ad]) != 0) {
          return reject(cat("fuse ", a.name, " -> ", b.name, " over '", mid_array,
                            "': consumer read wraps around repetition dim ", d,
                            " but producer input '", x.port.name,
                            "' is not paved periodically there"));
        }
      }
    }
  }

  // Pattern dimensions the producer index actually depends on. The
  // fused task recomputes one producer instance per point of this
  // reduced grid, per consumer repetition point.
  std::vector<std::size_t> red;
  for (std::size_t j = 0; j < pmr; ++j) {
    for (std::size_t d = 0; d < ra; ++d) {
      if (G.at(d, j) != 0) {
        red.push_back(j);
        break;
      }
    }
  }
  Index red_ext;
  for (std::size_t j : red) red_ext.push_back(b_mid.pattern[j]);
  const Shape red_pattern{Index(red_ext)};
  const std::int64_t n_a = red_pattern.elements();
  {
    std::set<Index> images;
    for_each_index(red_pattern, [&](const Index& av) {
      Index full(pmr, 0);
      for (std::size_t k = 0; k < red.size(); ++k) full[red[k]] = av[k];
      images.insert(G.mv(full));
    });
    if (static_cast<std::int64_t>(images.size()) != n_a) {
      return reject(cat("fuse ", a.name, " -> ", b.name, " over '", mid_array,
                        "': consumer re-reads the same producer instance along multiple "
                        "pattern dimensions"));
    }
  }
  IntMat g_red(ra, red.size(), 0);
  for (std::size_t k = 0; k < red.size(); ++k) {
    for (std::size_t d = 0; d < ra; ++d) g_red.at(d, k) = G.at(d, red[k]);
  }
  // Per consumer-pattern slot: which reduced-grid instance, which slot
  // of the producer pattern.
  std::vector<std::int64_t> a_of(static_cast<std::size_t>(pm));
  {
    const Index red_strides = red_pattern.strides();
    std::int64_t i_lin = 0;
    for_each_index(b_mid.pattern, [&](const Index& pat) {
      std::int64_t al = 0;
      for (std::size_t k = 0; k < red.size(); ++k) al += pat[red[k]] * red_strides[k];
      a_of[static_cast<std::size_t>(i_lin++)] = al;
    });
  }

  RepetitiveTask f;
  f.name = a.name + "_" + b.name;
  f.repetition = b.repetition;
  // Producer inputs re-tiled against the consumer repetition space:
  //   element = (o_X + P_X*rho00) + (P_X*M)*r_B + [P_X*G_red | F_X]*(a ++ i_X).
  for (const TiledPort& x : a.inputs) {
    TiledPort np = x;
    np.pattern = red_pattern.concat(x.pattern);
    np.tiler.paving = matmul(x.tiler.paving, M);
    np.tiler.fitting = matmul(x.tiler.paving, g_red).hcat(x.tiler.fitting);
    const Index shift = x.tiler.paving.mv(rho00);
    for (std::size_t d = 0; d < np.tiler.origin.size(); ++d) np.tiler.origin[d] += shift[d];
    f.inputs.push_back(std::move(np));
  }
  for (std::size_t p = 0; p < b.inputs.size(); ++p) {
    if (p != mid_port) f.inputs.push_back(b.inputs[p]);
  }
  f.outputs = b.outputs;

  // The fused op substitutes the producer once per reduced-grid
  // instance, then the consumer, whose read of mid slot t binds to what
  // producer instance a_of[t] wrote to its slot iota0[t]; its other
  // inputs follow the producer's.
  const std::vector<std::int64_t> a_in_sizes = pattern_sizes(a.inputs);
  std::int64_t a_in_total = 0;
  for (const std::int64_t sz : a_in_sizes) a_in_total += sz;
  aol::IpBuilder ip;
  std::vector<std::vector<aol::IpValue>> mid;
  for (std::int64_t ai = 0; ai < n_a; ++ai) {
    mid.push_back(ip.inline_op(a.op, [&](std::int64_t e) {
      return ip.in(instance_element(a_in_sizes, n_a, ai, e));
    }));
  }
  const std::vector<aol::IpValue> outs = ip.inline_op(b.op, [&](std::int64_t e) {
    std::int64_t next = n_a * a_in_total;
    for (std::size_t p = 0; p < b.inputs.size(); ++p) {
      const std::int64_t sz = b.inputs[p].pattern.elements();
      if (e < sz && p == mid_port) {
        const auto t = static_cast<std::size_t>(e);
        return mid[static_cast<std::size_t>(a_of[t])][static_cast<std::size_t>(iota0[t])];
      }
      if (e < sz) return ip.in(next + e);
      e -= sz;
      if (p != mid_port) next += sz;
    }
    throw OptError(cat("IP input element ", e, " past its ports"));
  });
  for (const aol::IpValue v : outs) ip.out(v);
  f.op = ip.finish(a.op.name + "+" + b.op.name);

  // The overlap between neighbouring points, in closed form from the
  // tilers: when a unit step along consumer dim j moves the producer
  // index by `shift` steps of the (one-dimensional) reduced grid,
  // M e_j = shift * g, point r + e_j's instance a is point r's a + shift,
  // and the last n_a - shift instances of r carry over.
  const bool computed = std::all_of(mid.begin(), mid.end(), [&](const auto& instance) {
    return std::all_of(instance.begin(), instance.end(), [&](const aol::IpValue v) {
      const aol::IpOp op = f.op.nodes()[static_cast<std::size_t>(v.id())].op;
      return op != aol::IpOp::Lit && op != aol::IpOp::In;
    });
  });
  for (std::size_t j = 0; computed && red.size() == 1 && j < rb; ++j) {
    if (b.repetition[j] < 2) continue;
    std::optional<std::int64_t> shift;
    bool multiple = true;
    for (std::size_t d = 0; d < ra && multiple; ++d) {
      const std::int64_t g = g_red.at(d, 0);
      const std::int64_t m = M.at(d, j);
      if (g == 0) {
        multiple = m == 0;
      } else if (m % g != 0 || (shift && *shift != m / g)) {
        multiple = false;
      } else {
        shift = m / g;
      }
    }
    if (!multiple || !shift || *shift <= 0 || *shift >= n_a) continue;
    aol::SharedProducer s;
    s.dim = j;
    s.instances = n_a;
    s.shift = *shift;
    s.ports = a.inputs.size();
    for (const std::vector<aol::IpValue>& instance : mid) {
      for (const aol::IpValue v : instance) s.outputs.push_back(v.id());
    }
    f.shared.push_back(std::move(s));
  }

  return accept(rebuild(model, {*prod, consumer}, {mid_array}, {std::move(f)}), "fusion");
}

RewriteResult try_merge(const Model& model, const std::string& task_a,
                        const std::string& task_b) {
  const auto ia = find_task(model, task_a);
  const auto ib = find_task(model, task_b);
  if (!ia) return reject(cat("merge: no task named '", task_a, "'"));
  if (!ib) return reject(cat("merge: no task named '", task_b, "'"));
  if (*ia == *ib) return reject(cat("merge: '", task_a, "' with itself"));
  const RepetitiveTask& a = model.tasks()[*ia];
  const RepetitiveTask& b = model.tasks()[*ib];
  if (!(a.repetition == b.repetition)) {
    return reject(cat("merge ", a.name, " + ", b.name, ": repetition spaces differ (",
                      a.repetition.to_string(), " vs ", b.repetition.to_string(), ")"));
  }
  // Transitive dependence in either direction forbids a horizontal
  // merge: edges go producer -> consumer through shared arrays.
  const auto reaches = [&](std::size_t from, std::size_t to) {
    std::vector<std::size_t> stack{from};
    std::vector<bool> seen(model.tasks().size(), false);
    seen[from] = true;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      if (u == to) return true;
      for (const TiledPort& out : model.tasks()[u].outputs) {
        for (std::size_t v = 0; v < model.tasks().size(); ++v) {
          if (seen[v]) continue;
          for (const TiledPort& in : model.tasks()[v].inputs) {
            if (in.port.name == out.port.name) {
              seen[v] = true;
              stack.push_back(v);
              break;
            }
          }
        }
      }
    }
    return false;
  };
  if (reaches(*ia, *ib)) {
    return reject(cat("merge ", a.name, " + ", b.name, ": '", b.name, "' depends on '", a.name,
                      "'"));
  }
  if (reaches(*ib, *ia)) {
    return reject(cat("merge ", a.name, " + ", b.name, ": '", a.name, "' depends on '", b.name,
                      "'"));
  }

  RepetitiveTask f;
  f.name = a.name + "_" + b.name;
  f.repetition = a.repetition;
  f.inputs = a.inputs;
  f.inputs.insert(f.inputs.end(), b.inputs.begin(), b.inputs.end());
  f.outputs = a.outputs;
  f.outputs.insert(f.outputs.end(), b.outputs.begin(), b.outputs.end());
  // The merged op is a's followed by b's, b reading after a's inputs.
  std::int64_t a_in = 0;
  for (const TiledPort& p : a.inputs) a_in += p.pattern.elements();
  aol::IpBuilder ip;
  for (const aol::IpValue v : ip.inline_op(a.op, [&](std::int64_t e) { return ip.in(e); })) {
    ip.out(v);
  }
  for (const aol::IpValue v : ip.inline_op(b.op, [&](std::int64_t e) { return ip.in(a_in + e); })) {
    ip.out(v);
  }
  f.op = ip.finish(a.op.name + "+" + b.op.name);
  // Each op keeps its nodes in order, b's after a's, and its ports.
  const std::size_t a_nodes = a.op.nodes().size();
  if (f.op.nodes().size() != a_nodes + b.op.nodes().size()) {
    throw OptError(cat("merge ", a.name, " + ", b.name, ": the merged op lost nodes"));
  }
  f.shared = a.shared;
  for (aol::SharedProducer s : b.shared) {
    s.first_port += a.inputs.size();
    for (std::int32_t& node : s.outputs) node += static_cast<std::int32_t>(a_nodes);
    f.shared.push_back(std::move(s));
  }

  return accept(rebuild(model, {*ia, *ib}, {}, {std::move(f)}), "task merge");
}

}  // namespace saclo::opt
