// Differential oracle for the plan-time specialisation of kernel tapes.
// A tape compiled against its generator's lattice may replace a
// selection by a LoadLin (proven in bounds) and drop dead bindings that
// cannot throw. Over seeded random generator bodies — lb > 0, step > 1,
// rank 1-3 lattices, cells, boundary `%` indices, loads whose affine
// range exceeds the array, rebindings and dead throwing bindings — the
// specialised tape must produce exactly the plain tape's results and
// exactly its errors at every lattice point. The specialised tape also
// runs lane-batched over one run per body, of 1, 2, kLanes - 1, kLanes
// and kLanes + 1 points, some entered mid-run: every lane up to the
// first failing point, and that point's error, must be the plain tape's.
// The bodies divide by literals too (±2, 3, 6, 7, 2^31, 2^62), which the
// specialised tape runs as immediate ops. A second oracle runs random
// with-loop programs through the host backend against the interpreter.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/fmt.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac_cuda/program.hpp"
#include "sac_cuda/tape.hpp"
#include "support/tape_poison.hpp"

namespace saclo::sac_cuda {
namespace {

using sac::affine::Lattice;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }
  bool chance(int percent) { return uniform(0, 99) < percent; }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(uniform(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

 private:
  std::mt19937_64 gen_;
};

const std::vector<std::string> kIndexNames{"i", "j", "k"};

/// Every point of a lattice, as lattice coordinates t (dimension 0
/// fastest, the kernels' id order).
std::vector<Index> lattice_points(const Lattice& lat) {
  std::vector<Index> out;
  std::int64_t n = 1;
  for (const auto& d : lat.dims) n *= d.extent;
  for (std::int64_t id = 0; id < n; ++id) {
    Index t(lat.rank());
    std::int64_t rest = id;
    for (std::size_t d = 0; d < lat.rank(); ++d) {
      t[d] = rest % lat.dims[d].extent;
      rest /= lat.dims[d].extent;
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// A bound array with deterministic contents in [-40, 40].
struct Bound {
  std::vector<std::int32_t> data;
  TapeArray array;
};

Bound make_array(const Index& dims, std::int64_t salt) {
  Bound b;
  const Shape s(dims);
  b.data.resize(static_cast<std::size_t>(s.elements()));
  for (std::size_t e = 0; e < b.data.size(); ++e) {
    b.data[e] = static_cast<std::int32_t>((static_cast<std::int64_t>(e) * 7 + salt * 13) % 81 - 40);
  }
  b.array = TapeArray{std::span<const std::int32_t>(b.data), dims, s.strides()};
  return b;
}

/// One tape evaluation at one lattice point: the result values, or the
/// error text.
struct Outcome {
  std::vector<std::int64_t> results;
  std::string error;
  bool operator==(const Outcome& other) const = default;
};

/// `on_scratch` runs it on the thread's tape scratch, else on rows of
/// its own, zero-filled.
Outcome run_at(const KernelTape& tape, const Lattice& lat, const Index& t,
               const std::vector<TapeArray>& arrays, bool on_scratch = false) {
  std::optional<TapeLanes> own;
  std::optional<TapeLanes> scratch;
  TapeLanes& lanes = on_scratch ? scratch.emplace(tape, kLanes, TapeLanes::ThreadScratch{})
                                : own.emplace(tape, kLanes);
  for (std::size_t d = 0; d < lat.rank(); ++d) {
    lanes.slot(tape.input_slots[d])[0] = lat.dims[d].lb + lat.dims[d].step * t[d];
  }
  std::vector<std::int64_t> offsets;
  for (const sac::affine::Lin& l : tape.lin_loads) {
    std::int64_t off = l.c0;
    for (std::size_t d = 0; d < lat.rank(); ++d) off += l.coeff[d] * t[d];
    offsets.push_back(off);
  }
  const std::vector<std::int64_t> steps(offsets.size(), 0);  // one lane
  Outcome o;
  try {
    tape.run(lanes, 1, arrays, offsets, steps);
    for (int rs : tape.result_slots) o.results.push_back(lanes.slot(rs)[0]);
  } catch (const Error& e) {
    o.error = e.what();
  }
  return o;
}

/// Runs `tape` the way a kernel launch walks a run along dimension 0:
/// the points t0 + l * e0 for l in [0, count), in blocks of up to kLanes
/// lanes on the thread's tape scratch, and expects each point's outcome
/// in `expected`, which ends at the first failing point. Returns the
/// number of points compared.
std::int64_t expect_blocks_match(const KernelTape& tape, const Lattice& lat, const Index& t0,
                                 std::int64_t count, const std::vector<Outcome>& expected,
                                 const std::vector<TapeArray>& arrays) {
  TapeLanes lanes(tape, kLanes, TapeLanes::ThreadScratch{});
  std::vector<std::int64_t> offsets;
  std::vector<std::int64_t> steps;
  for (const sac::affine::Lin& l : tape.lin_loads) {
    std::int64_t off = l.c0;
    for (std::size_t d = 0; d < lat.rank(); ++d) off += l.coeff[d] * t0[d];
    offsets.push_back(off);
    steps.push_back(l.coeff[0]);
  }
  std::int64_t compared = 0;
  for (std::int64_t done = 0; done < count;) {
    const int n = static_cast<int>(std::min<std::int64_t>(count - done, kLanes));
    for (std::size_t d = 0; d < lat.rank(); ++d) {
      std::int64_t* row = lanes.slot(tape.input_slots[d]);
      for (int l = 0; l < n; ++l) {
        row[l] = lat.dims[d].lb + lat.dims[d].step * (t0[d] + (d == 0 ? done + l : 0));
      }
    }
    std::string error;
    try {
      tape.run(lanes, n, arrays, offsets, steps);
    } catch (const Error& e) {
      error = e.what();
    }
    for (int l = 0; l < n; ++l) {
      const Outcome& want = expected[static_cast<std::size_t>(done + l)];
      ++compared;
      if (!want.error.empty()) {
        EXPECT_EQ(error, want.error) << "lane " << l << " of a block of " << n;
        return compared;
      }
      Outcome got;
      for (int rs : tape.result_slots) got.results.push_back(lanes.slot(rs)[l]);
      EXPECT_EQ(got, want) << "lane " << l << " of a block of " << n;
    }
    EXPECT_EQ(error, "") << "a block of " << n << " failed where no point does";
    done += n;
    for (std::size_t k = 0; k < offsets.size(); ++k) offsets[k] += n * steps[k];
  }
  return compared;
}

int count_op(const Tape& t, TapeOp op) {
  int n = 0;
  for (const TapeInstr& i : t.code) n += i.op == op ? 1 : 0;
  return n;
}

/// A generator body under test: statements, result expressions, the
/// lattice and the arrays it selects from.
struct BodyCase {
  std::vector<sac::StmtPtr> stmts;
  std::vector<sac::ExprPtr> results;
  Lattice lattice;
  std::map<std::string, Index> dims;

  std::vector<const sac::Expr*> result_ptrs() const {
    std::vector<const sac::Expr*> out;
    for (const auto& r : results) out.push_back(r.get());
    return out;
  }
};

/// Folds a negated literal divisor (`x / -6` parses as a negation of 6)
/// into one literal, as the optimizer's constant folding does before a
/// whole program reaches the tape compiler.
void fold_negative_divisors(sac::Expr& e) {
  for (sac::ExprPtr& a : e.args) {
    if (a) fold_negative_divisors(*a);
  }
  if (e.kind == sac::ExprKind::BinOp &&
      (e.bin_op == sac::BinOpKind::Div || e.bin_op == sac::BinOpKind::Mod)) {
    sac::ExprPtr& d = e.args[1];
    if (d->kind == sac::ExprKind::UnOp && d->un_op == sac::UnOpKind::Neg &&
        d->args[0]->kind == sac::ExprKind::IntLit) {
      d = sac::make_int(-d->args[0]->int_val);
    }
  }
}

BodyCase parse_case(const std::string& stmts, const std::vector<std::string>& results,
                    const Lattice& lattice, std::map<std::string, Index> dims) {
  BodyCase c;
  std::string params;
  for (std::size_t d = 0; d < lattice.rank(); ++d) {
    params += cat(d ? ", " : "", "int ", lattice.scalar_names[d]);
  }
  const sac::Module m = sac::parse(cat("int f(", params, ") { ", stmts, " return (0); }"));
  const auto& body = m.functions[0].body;
  for (std::size_t s = 0; s + 1 < body.size(); ++s) {
    c.stmts.push_back(body[s]->clone());
    if (c.stmts.back()->value) fold_negative_divisors(*c.stmts.back()->value);
  }
  for (const std::string& r : results) {
    c.results.push_back(sac::parse_expression(r));
    fold_negative_divisors(*c.results.back());
  }
  c.lattice = lattice;
  c.dims = std::move(dims);
  return c;
}

Lattice make_lattice(const std::vector<Lattice::Dim>& dims) {
  Lattice lat;
  lat.dims = dims;
  for (std::size_t d = 0; d < dims.size(); ++d) lat.scalar_names.push_back(kIndexNames[d]);
  return lat;
}

/// The arrays `t` selects from, in its id order; `keep` owns their data.
std::vector<TapeArray> bind_arrays(const Tape& t, const std::map<std::string, Index>& dims,
                                   std::vector<Bound>& keep) {
  std::vector<TapeArray> arrays;
  keep.reserve(t.array_names.size());
  for (const std::string& name : t.array_names) {
    keep.push_back(make_array(dims.at(name), static_cast<std::int64_t>(name[0])));
    arrays.push_back(keep.back().array);
  }
  return arrays;
}

struct Compared {
  KernelTape plain;
  KernelTape spec;
  std::vector<Outcome> outcomes;  ///< the plain tape's, per lattice point
};

/// Compiles the case plain and specialised, runs both at every lattice
/// point (the plain tape on zero-filled rows, the specialised one on the
/// thread's scratch) and expects identical outcomes.
Compared compare(const BodyCase& c) {
  auto plain = compile_tape(c.stmts, c.result_ptrs(), c.lattice.scalar_names, c.dims);
  auto spec = compile_tape(c.stmts, c.result_ptrs(), c.lattice.scalar_names, c.dims, &c.lattice);
  EXPECT_TRUE(plain.has_value());
  EXPECT_TRUE(spec.has_value());
  Compared out;
  if (!plain || !spec) return out;
  out.plain = std::move(*plain);
  out.spec = std::move(*spec);
  // Both tapes bind arrays by their own ids.
  std::vector<Bound> bound_plain;
  std::vector<Bound> bound_spec;
  const std::vector<TapeArray> arrays_plain = bind_arrays(out.plain, c.dims, bound_plain);
  const std::vector<TapeArray> arrays_spec = bind_arrays(out.spec, c.dims, bound_spec);
  for (const Index& t : lattice_points(c.lattice)) {
    const Outcome a = run_at(out.plain, c.lattice, t, arrays_plain);
    const Outcome b = run_at(out.spec, c.lattice, t, arrays_spec, /*on_scratch=*/true);
    EXPECT_EQ(a, b) << "at t=" << Shape(t).to_string() << ": plain '" << a.error
                    << "' specialised '" << b.error << "'\nplain tape:\n"
                    << out.plain.to_string() << "specialised tape:\n"
                    << out.spec.to_string();
    out.outcomes.push_back(a);
  }
  return out;
}

// --- targeted cases ----------------------------------------------------------------

TEST(SpecialiseOracle, DeadIndexArithmeticIsDroppedAfterTheProof) {
  // The non-generic output tiler's shape: j steps by 3, the load reads
  // column j/3. The load becomes a LoadLin, the j/3 binding is dead and
  // cannot throw, so it goes, and nothing reads j any more.
  const BodyCase c = parse_case("q = j / 3;", {"A[[i, q]]"},
                                make_lattice({{0, 1, 4}, {0, 3, 5}}), {{"A", {4, 5}}});
  const Compared r = compare(c);
  EXPECT_EQ(count_op(r.spec, TapeOp::LoadLin), 1);
  EXPECT_EQ(count_op(r.spec, TapeOp::LoadArr), 0);
  EXPECT_EQ(count_op(r.spec, TapeOp::Div) + count_op(r.spec, TapeOp::DivImm), 0);
  EXPECT_FALSE(r.spec.reads_slot(r.spec.input_slots[1]));
  EXPECT_EQ(count_op(r.plain, TapeOp::LoadArr), 1);
  EXPECT_EQ(count_op(r.plain, TapeOp::LoadLin), 0);
  // The specialised tape is what runs; the plain one is what is costed.
  EXPECT_EQ(r.spec.array_loads(), r.plain.array_loads());
}

TEST(SpecialiseOracle, TightRangesAreProvenAndOneBeyondIsNot) {
  // i = 1 + 2t, t in [0, 3): i in {1, 3, 5}. Affine ranges over the
  // lattice box are exact, so a load is proven exactly when it never
  // leaves the array.
  const Lattice lat = make_lattice({{1, 2, 3}});
  struct Probe {
    std::string index;
    std::int64_t extent;
    bool proven;
  };
  const Probe probes[] = {
      {"i", 6, true},                 // 1 .. 5
      {"i", 5, false},                // 5 == extent
      {"i - 1", 5, true},             // 0 .. 4
      {"i - 2", 6, false},            // -1 .. 3
      {"(i - 1) / 2", 3, true},       // t
      {"(i - 1) / 2 + 1", 3, false},  // 1 .. 3
      {"i / 2", 3, true},             // 0 .. 2
      {"6 - i", 6, true},             // 5 .. 1
      {"5 - i", 6, true},             // 4 .. 0
      {"4 - i", 6, false},            // 3 .. -1
      {"i % 2", 2, true},             // always 1
      {"i % 2", 1, false},
  };
  for (const Probe& p : probes) {
    SCOPED_TRACE(cat("A[", p.index, "] over extent ", p.extent));
    const Compared r = compare(parse_case("", {cat("A[", p.index, "]")}, lat, {{"A", {p.extent}}}));
    bool in_bounds = true;
    for (const Outcome& o : r.outcomes) in_bounds = in_bounds && o.error.empty();
    EXPECT_EQ(in_bounds, p.proven);
    EXPECT_EQ(count_op(r.spec, TapeOp::LoadLin), p.proven ? 1 : 0);
  }
}

TEST(SpecialiseOracle, UnprovenLoadsKeepTheCheckedErrorText) {
  const Lattice lat = make_lattice({{0, 1, 4}});
  const Compared r = compare(parse_case("", {"A[[i + 1]]"}, lat, {{"A", {4}}}));
  EXPECT_EQ(count_op(r.spec, TapeOp::LoadArr), 1);
  ASSERT_EQ(r.outcomes.size(), 4u);
  EXPECT_EQ(r.outcomes[3].error, "tape: index 4 out of bounds for dim 0 extent 4");
}

TEST(SpecialiseOracle, DeadBindingsThatMayThrowStay) {
  const Lattice lat = make_lattice({{0, 1, 5}});
  // Division by a variable that is zero at i == 2.
  const Compared div = compare(parse_case("v = i - 2; d = 10 / v;", {"A[[i]]"}, lat,
                                          {{"A", {5}}}));
  EXPECT_EQ(count_op(div.spec, TapeOp::Div), 1);
  EXPECT_EQ(div.outcomes[2].error, "tape: division by zero");
  // Modulo by a variable.
  const Compared mod = compare(parse_case("d = 10 % (i - 3);", {"A[[i]]"}, lat, {{"A", {5}}}));
  EXPECT_EQ(mod.outcomes[3].error, "tape: modulo by zero");
  // A dead checked load out of bounds.
  const Compared load = compare(parse_case("d = A[[i + 3]];", {"i"}, lat, {{"A", {5}}}));
  EXPECT_EQ(load.outcomes[2].error, "tape: index 5 out of bounds for dim 0 extent 5");
  // Division by a literal zero is not a non-zero literal.
  const Compared zero = compare(parse_case("d = i / 0;", {"i"}, lat, {}));
  EXPECT_EQ(zero.outcomes[0].error, "tape: division by zero");
  // ...while division by a non-zero literal is dropped when dead.
  const Compared safe = compare(parse_case("d = i / 4; e = d % 3;", {"i"}, lat, {}));
  EXPECT_EQ(count_op(safe.spec, TapeOp::Div) + count_op(safe.spec, TapeOp::Mod), 0);
  EXPECT_EQ(count_op(safe.spec, TapeOp::DivImm) + count_op(safe.spec, TapeOp::ModImm), 0);
}

TEST(SpecialiseOracle, LiteralDivisorsBecomeImmediateOps) {
  // Specialised, a division or modulo by a literal other than 0 and ±1
  // is one divi/modi by the literal's plan-time reciprocal; 0 and ±1
  // keep the plain op. compare() holds every point to the plain tape's
  // `/` and `%`, over numerators of both signs up to ~2^39.
  const Lattice lat = make_lattice({{0, 1, 601}});
  const Compared r = compare(parse_case(
      "a = (i - 300) * 1000000007;",
      {"a / 6", "a % -7", "a / 2147483648", "a % 4611686018427387904",
       "a / -4611686018427387904", "(i - 300) / 3 % 2", "a / 1", "a % -1", "a / -1"},
      lat, {}));
  EXPECT_EQ(count_op(r.spec, TapeOp::DivImm), 4);  // 6, 2^31, -2^62, 3
  EXPECT_EQ(count_op(r.spec, TapeOp::ModImm), 3);  // -7, 2^62, 2
  EXPECT_EQ(count_op(r.spec, TapeOp::Div), 2);     // 1, -1
  EXPECT_EQ(count_op(r.spec, TapeOp::Mod), 1);     // -1
  EXPECT_EQ(count_op(r.plain, TapeOp::DivImm) + count_op(r.plain, TapeOp::ModImm), 0);
  // The cost descriptor counts one op either way.
  EXPECT_EQ(r.spec.arith_ops(), r.plain.arith_ops());
  EXPECT_NE(r.spec.to_string().find("divi 6\n"), std::string::npos);
  EXPECT_NE(r.spec.to_string().find("modi -7\n"), std::string::npos);
  ASSERT_EQ(r.outcomes.size(), 601u);
  const std::int64_t a = -300 * std::int64_t{1000000007};
  EXPECT_EQ(r.outcomes[0].results[0], a / 6);
  EXPECT_EQ(r.outcomes[0].results[1], a % -7);
  // The immediate ops cannot throw, so a dead one is dropped.
  const Compared dead = compare(parse_case("d = i / 7; e = i % -6;", {"i"}, lat, {}));
  EXPECT_EQ(count_op(dead.spec, TapeOp::DivImm) + count_op(dead.spec, TapeOp::ModImm), 0);
}

TEST(SpecialiseOracle, LaterRebindingsDoNotLeakIntoEarlierSelections) {
  const Lattice lat = make_lattice({{0, 1, 4}});
  // `a` is rebound after the load: the load must use the first value.
  const Compared r = compare(
      parse_case("a = i; x = A[[a]]; a = i + 10;", {"x + a"}, lat, {{"A", {4}}}));
  EXPECT_EQ(count_op(r.spec, TapeOp::LoadLin), 1);
  // An index variable rebound before the load hides the lattice value.
  const Compared shadow = compare(parse_case("i = i + 1;", {"A[[i]]"}, lat, {{"A", {4}}}));
  EXPECT_EQ(shadow.outcomes[3].error, "tape: index 4 out of bounds for dim 0 extent 4");
}

TEST(SpecialiseOracle, UnrolledFoldsAreNotMistakenForLatticeVariables) {
  // The inner fold rebinds `i` point by point; selections inside it and
  // after it read the fold's value, not the lattice's.
  const Lattice lat = make_lattice({{0, 1, 3}});
  const Compared r = compare(parse_case(
      "s = with { ([0] <= [i] < [4]) : A[[i]]; } : fold(+, 0);", {"s + A[[i]]"}, lat,
      {{"A", {4}}}));
  EXPECT_EQ(r.outcomes[0].results, r.outcomes[1].results);
  EXPECT_EQ(count_op(r.spec, TapeOp::LoadLin), 0);
}

// --- random bodies -----------------------------------------------------------------

/// Random straight-line generator bodies over named arrays.
class BodyGen {
 public:
  BodyGen(Rng& rng, const Lattice& lat, std::map<std::string, Index> dims)
      : rng_(rng), dims_(std::move(dims)), index_names_(lat.scalar_names), names_(lat.scalar_names) {
    for (const auto& [name, d] : dims_) arrays_.push_back(name);
  }

  /// `plain_only` leaves out dead throwing bindings and rebindings
  /// (for whole programs, whose optimizer removes dead code first).
  std::string statements(bool plain_only = false) {
    std::string out;
    const std::int64_t n = rng_.uniform(0, 4);
    for (std::int64_t s = 0; s < n; ++s) {
      const std::string name = cat("b", s);
      switch (plain_only ? 9 : rng_.uniform(0, 9)) {
        case 0:  // a dead binding that may divide by zero
          out += cat("d", s, " = ", rng_.uniform(1, 9), " / (", rng_.pick(names_), " - ",
                     rng_.uniform(0, 4), "); ");
          continue;
        case 1:  // a dead checked load that may be out of bounds
          out += cat("d", s, " = ", load(), "; ");
          continue;
        case 2:  // a rebinding of an earlier name, after its uses so far
          if (names_.size() > 1) {
            const std::string& old = rng_.pick(names_);
            out += cat(old, " = ", old, " + ", rng_.uniform(-2, 2), "; ");
            continue;
          }
          break;
        default:
          break;
      }
      out += cat(name, " = ", scalar(2), "; ");
      names_.push_back(name);
    }
    return out;
  }

  std::string scalar(int depth) {
    switch (depth > 0 ? rng_.uniform(0, 7) : rng_.uniform(0, 2)) {
      case 0: return rng_.pick(names_);
      case 1: return cat(rng_.uniform(-3, 9));
      case 2: return cat(rng_.pick(names_), " / ", rng_.uniform(1, 3));
      case 3:
      case 4: return load();
      case 5: return cat("(", scalar(depth - 1), " + ", scalar(depth - 1), ")");
      case 6: return cat(rng_.uniform(1, 3), " * ", scalar(depth - 1));
      default: {
        // A literal divisor: an immediate op on the specialised tape.
        static const char* const kDivisors[] = {"2", "3", "6", "7", "2147483648",
                                                "4611686018427387904"};
        return cat("(", scalar(depth - 1), rng_.chance(50) ? " / " : " % ",
                   rng_.chance(50) ? "-" : "", kDivisors[rng_.uniform(0, 5)], ")");
      }
    }
  }

  std::string load() {
    const std::string& a = rng_.pick(arrays_);
    const Index& d = dims_.at(a);
    if (d.size() == 1 && rng_.chance(50)) return cat(a, "[", component(d[0]), "]");
    std::string out = a + "[[";
    for (std::size_t k = 0; k < d.size(); ++k) out += cat(k ? ", " : "", component(d[k]));
    return out + "]]";
  }

 private:
  /// One index component: mostly affine, tuned to land on, just inside
  /// or just beyond the array's bounds.
  std::string component(std::int64_t extent) {
    const std::string& v = rng_.chance(70) ? rng_.pick(index_names_) : rng_.pick(names_);
    switch (rng_.uniform(0, 7)) {
      case 0: return cat(v, " + ", rng_.uniform(-2, 2));
      case 1: return cat(rng_.uniform(1, 2), " * ", v, " - ", rng_.uniform(0, 3));
      case 2: return cat(v, " / ", rng_.uniform(2, 3));
      case 3: return cat("(", v, " + ", rng_.uniform(0, 3), ") % ", extent);  // boundary
      case 4: return cat(rng_.uniform(0, extent));
      case 5: return cat(extent - 1, " - ", v);
      case 6: return cat("(", v, " - ", rng_.uniform(0, 2), ") * ", rng_.uniform(0, 2));
      default: return v;
    }
  }

  Rng& rng_;
  std::map<std::string, Index> dims_;
  std::vector<std::string> index_names_;
  std::vector<std::string> names_;
  std::vector<std::string> arrays_;
};

Lattice random_lattice(Rng& rng) {
  std::vector<Lattice::Dim> dims;
  const std::int64_t rank = rng.uniform(1, 3);
  for (std::int64_t d = 0; d < rank; ++d) {
    dims.push_back({rng.uniform(0, 3), rng.uniform(1, 3), rng.uniform(1, 4)});
  }
  return make_lattice(dims);
}

std::map<std::string, Index> random_arrays(Rng& rng) {
  std::map<std::string, Index> dims;
  for (const char* name : {"A", "B"}) {
    Index d;
    const std::int64_t rank = rng.uniform(1, 3);
    for (std::int64_t k = 0; k < rank; ++k) d.push_back(rng.uniform(3, 12));
    dims.emplace(name, d);
  }
  return dims;
}

/// Points per block run in the random-body sweep: the shortest blocks,
/// and one block either side of a full one.
constexpr std::int64_t kBlockLengths[] = {1, 2, kLanes - 1, kLanes, kLanes + 1};

TEST(SpecialiseOracle, RandomBodiesAreBitExactWithThePlainTape) {
  // The specialised tape runs on poisoned scratch, the plain one on
  // zero-filled rows: a read before a write shows as a mismatch.
  const testsupport::PoisonedTapeScratch poisoned;
  int proven = 0;
  int checked = 0;
  int dropped = 0;
  int bounds_errors = 0;
  int zero_divisions = 0;
  int results = 0;
  int errors_after_results = 0;
  int multi_block_runs = 0;
  int lower_lanes_first = 0;
  int stepped_loads = 0;
  int immediate_ops = 0;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const Lattice lat = random_lattice(rng);
    const std::map<std::string, Index> dims = random_arrays(rng);
    BodyGen gen(rng, lat, dims);
    const std::string stmts = gen.statements();
    std::vector<std::string> cells;
    const std::int64_t cell = rng.uniform(1, 3);
    for (std::int64_t e = 0; e < cell; ++e) cells.push_back(gen.scalar(2));
    SCOPED_TRACE(cat("seed ", seed, ": ", stmts, "-> ", join(cells, " | ")));
    const BodyCase c = parse_case(stmts, cells, lat, dims);
    const Compared r = compare(c);
    if (::testing::Test::HasFailure()) return;
    // The block runs: one run along dimension 0, stretched to the block
    // length and, for seeds not divisible by 3, entered mid-run, against
    // the plain tape point by point. Odd seeds first divide by zero at
    // one point of the run, so a later instruction that fails on a lower
    // lane must replace that error.
    {
      const std::int64_t length = kBlockLengths[seed % std::size(kBlockLengths)];
      const std::int64_t skip = static_cast<std::int64_t>(seed % 3);
      Lattice stretched = lat;
      stretched.dims[0].extent = skip + length;
      Index t0(lat.rank(), 0);
      t0[0] = skip;
      for (std::size_t d = 1; d < lat.rank(); ++d) t0[d] = rng.uniform(0, lat.dims[d].extent - 1);
      std::int64_t zero_at = length;  // the run's point that divides by zero
      std::string block_stmts = stmts;
      if (seed % 2 == 1) {
        zero_at = rng.uniform(0, length - 1);
        const auto& d0 = lat.dims[0];
        block_stmts = cat("z = 7 / (i - ", d0.lb + d0.step * (skip + zero_at), "); ", stmts);
      }
      const BodyCase bc = parse_case(block_stmts, cells, stretched, dims);
      auto plain = compile_tape(bc.stmts, bc.result_ptrs(), lat.scalar_names, dims);
      auto spec = compile_tape(bc.stmts, bc.result_ptrs(), lat.scalar_names, dims, &stretched);
      ASSERT_TRUE(plain.has_value());
      ASSERT_TRUE(spec.has_value());
      std::vector<Bound> bound_plain;
      std::vector<Bound> bound_spec;
      const std::vector<TapeArray> arrays_plain = bind_arrays(*plain, dims, bound_plain);
      const std::vector<TapeArray> arrays_spec = bind_arrays(*spec, dims, bound_spec);
      std::vector<Outcome> expected;
      for (std::int64_t l = 0; l < length; ++l) {
        Index t = t0;
        t[0] += l;
        expected.push_back(run_at(*plain, stretched, t, arrays_plain));
        if (!expected.back().error.empty()) break;
      }
      const std::int64_t lanes =
          expect_blocks_match(*spec, stretched, t0, length, expected, arrays_spec);
      if (::testing::Test::HasFailure()) return;
      const std::int64_t failed_at = lanes - 1;
      if (failed_at > 0 && !expected.back().error.empty()) ++errors_after_results;
      if (zero_at < length && failed_at < zero_at && failed_at / kLanes == zero_at / kLanes &&
          !expected.back().error.empty()) {
        ++lower_lanes_first;
      }
      if (lanes > kLanes) ++multi_block_runs;
      if (lanes > 1 && count_op(*spec, TapeOp::LoadLin) > 0) ++stepped_loads;
    }
    proven += count_op(r.spec, TapeOp::LoadLin);
    checked += count_op(r.spec, TapeOp::LoadArr);
    immediate_ops += count_op(r.spec, TapeOp::DivImm) + count_op(r.spec, TapeOp::ModImm);
    if (count_op(r.spec, TapeOp::StoreSlot) < count_op(r.plain, TapeOp::StoreSlot)) ++dropped;
    for (const Outcome& o : r.outcomes) {
      if (o.error.find("out of bounds") != std::string::npos) ++bounds_errors;
      if (o.error == "tape: division by zero") ++zero_divisions;
      if (o.error.empty()) ++results;
    }
  }
  // The sweep must exercise every path it claims to.
  EXPECT_GT(proven, 200);
  EXPECT_GT(checked, 200);
  EXPECT_GT(dropped, 30);
  EXPECT_GT(bounds_errors, 100);
  EXPECT_GT(zero_divisions, 10);
  EXPECT_GT(results, 1000);
  EXPECT_GT(errors_after_results, 150);
  EXPECT_GT(multi_block_runs, 15);
  EXPECT_GT(lower_lanes_first, 100);
  EXPECT_GT(stepped_loads, 40);
  EXPECT_GT(immediate_ops, 1000);
}

// --- random programs ---------------------------------------------------------------

/// The reference result of a program (the interpreter on the compiled
/// function) or of its host-backend kernels: the value, or "error".
std::string outcome_of(const std::function<sac::Value()>& run) {
  try {
    const sac::Value v = run();
    std::string out = v.shape().to_string() + ":";
    for (std::int64_t e = 0; e < v.ints().elements(); ++e) out += cat(" ", v.ints()[e]);
    return out;
  } catch (const Error&) {
    return "error";
  }
}

TEST(SpecialiseOracle, RandomWithLoopsMatchTheInterpreterOnTheHostBackend) {
  int programs_with_kernels = 0;
  int proven = 0;
  int errors = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919);
    const Lattice lat = random_lattice(rng);
    std::map<std::string, Index> dims;
    for (const char* name : {"A", "C"}) {
      Index d;
      const std::int64_t rank = rng.uniform(1, 3);
      for (std::int64_t k = 0; k < rank; ++k) d.push_back(rng.uniform(3, 12));
      dims.emplace(name, d);
    }
    BodyGen gen(rng, lat, dims);
    const std::string stmts = gen.statements(/*plain_only=*/true);
    const std::int64_t cell = rng.uniform(0, 1) * rng.uniform(2, 3);
    std::string value;
    if (cell == 0) {
      value = gen.scalar(2);
    } else {
      std::vector<std::string> elems;
      for (std::int64_t e = 0; e < cell; ++e) elems.push_back(gen.scalar(2));
      value = "[" + join(elems, ", ") + "]";
    }
    std::vector<std::string> lb;
    std::vector<std::string> ub;
    std::vector<std::string> step;
    Index frame;
    for (const auto& d : lat.dims) {
      const std::int64_t hi = d.lb + d.step * (d.extent - 1) + 1;
      lb.push_back(cat(d.lb));
      ub.push_back(cat(hi));
      step.push_back(cat(d.step));
      frame.push_back(hi + rng.uniform(0, 2));
    }
    Index full = frame;
    if (cell > 0) full.push_back(cell);
    const std::string src =
        cat("int[*] main(int[*] A, int[*] C, int[*] B) {\n  o = with {\n    ([", join(lb, ", "),
            "] <= [", join(lat.scalar_names, ", "), "] < [", join(ub, ", "), "] step [",
            join(step, ", "), "]) { ", stmts, "} : ", value, ";\n  } : modarray(B);\n  return (o);\n}\n");
    SCOPED_TRACE(cat("seed ", seed, ":\n", src));
    const sac::Module m = sac::parse(src);
    const sac::CompiledFunction cf =
        sac::compile(m, "main",
                     {sac::ArgSpec::array(sac::ElemType::Int, Shape(dims.at("A"))),
                      sac::ArgSpec::array(sac::ElemType::Int, Shape(dims.at("C"))),
                      sac::ArgSpec::array(sac::ElemType::Int, Shape(full))});
    CudaProgram p = CudaProgram::plan(cf);
    auto array_value = [](const Index& d, std::int64_t salt) {
      return sac::Value(IntArray::generate(Shape(d), [&](const Index& i) {
        std::int64_t h = salt;
        for (std::int64_t x : i) h = h * 31 + x;
        return h % 97 - 48;
      }));
    };
    const std::vector<sac::Value> args{array_value(dims.at("A"), 1),
                                       array_value(dims.at("C"), 2), array_value(full, 3)};
    const std::string expected = outcome_of([&] {
      return run_sequential(cf, args, gpu::i7_930(), true).result;
    });
    for (const gpu::BackendKind backend : {gpu::BackendKind::Host, gpu::BackendKind::Sim}) {
      gpu::VirtualGpu device(gpu::gtx480(), 3, backend);
      gpu::cuda::Runtime rt(device);
      gpu::Profiler host_profiler;
      EXPECT_EQ(outcome_of([&] { return p.run(rt, args, gpu::i7_930(), host_profiler, true); }),
                expected)
          << gpu::backend_kind_name(backend);
    }
    if (::testing::Test::HasFailure()) return;
    if (p.kernel_count() > 0 && p.host_block_count() == 0) ++programs_with_kernels;
    for (const Step& st : p.steps()) {
      if (st.kind != Step::Kind::Kernels) continue;
      for (const GenKernel& k : st.group.kernels) proven += count_op(k.tape, TapeOp::LoadLin);
    }
    if (expected == "error") ++errors;
  }
  EXPECT_GT(programs_with_kernels, 250);
  EXPECT_GT(proven, 80);
  EXPECT_GT(errors, 30);

  // Multi-generator genarray loops with a non-zero default: overlapping
  // generators (the later one wins, as in the interpreter), holes that
  // only the default fills — some of them with enough points to cover
  // the frame — and exact covers that need no fill.
  int filled = 0;
  int unfilled = 0;
  int overlaps_reaching_the_frame_size = 0;
  for (std::uint64_t seed = 301; seed <= 600; ++seed) {
    Rng rng(seed * 7919);
    const std::size_t rank = static_cast<std::size_t>(rng.uniform(1, 2));
    Index frame;
    for (std::size_t d = 0; d < rank; ++d) frame.push_back(rng.uniform(2, 7));
    std::vector<Lattice> lattices;
    if (rng.chance(40)) {
      // An exact cover: one dimension split at a cut, or into its even
      // and odd points.
      const std::size_t split = static_cast<std::size_t>(rng.uniform(0, rank - 1));
      std::vector<Lattice::Dim> whole;
      for (std::int64_t n : frame) whole.push_back({0, 1, n});
      std::vector<Lattice::Dim> a = whole;
      std::vector<Lattice::Dim> b = whole;
      const std::int64_t n = frame[split];
      if (rng.chance(50)) {
        const std::int64_t cut = rng.uniform(1, n - 1);
        a[split] = {0, 1, cut};
        b[split] = {cut, 1, n - cut};
      } else {
        a[split] = {0, 2, (n + 1) / 2};
        b[split] = {1, 2, n / 2};
      }
      lattices = {make_lattice(a), make_lattice(b)};
    } else {
      const std::int64_t count = rng.uniform(2, 3);
      for (std::int64_t g = 0; g < count; ++g) {
        std::vector<Lattice::Dim> dims;
        for (std::int64_t n : frame) {
          const std::int64_t lb = rng.uniform(0, n - 1);
          const std::int64_t step = rng.uniform(1, 3);
          dims.push_back({lb, step, rng.uniform(1, (n - 1 - lb) / step + 1)});
        }
        lattices.push_back(make_lattice(dims));
      }
    }
    std::map<std::string, Index> dims;
    for (const char* name : {"A", "C"}) {
      Index d;
      for (std::size_t k = 0; k < rank; ++k) d.push_back(rng.uniform(3, 9));
      dims.emplace(name, d);
    }
    std::string generators;
    std::int64_t points = 0;
    for (const Lattice& lat : lattices) {
      BodyGen gen(rng, lat, dims);
      std::vector<std::string> lb;
      std::vector<std::string> ub;
      std::vector<std::string> step;
      std::int64_t n = 1;
      for (const auto& d : lat.dims) {
        lb.push_back(cat(d.lb));
        ub.push_back(cat(d.lb + d.step * (d.extent - 1) + 1));
        step.push_back(cat(d.step));
        n *= d.extent;
      }
      points += n;
      const std::string stmts = gen.statements(/*plain_only=*/true);
      generators += cat("    ([", join(lb, ", "), "] <= [", join(lat.scalar_names, ", "),
                        "] < [", join(ub, ", "), "] step [", join(step, ", "), "]) { ", stmts,
                        "} : ", gen.scalar(1), ";\n");
    }
    std::vector<std::string> frame_text;
    for (std::int64_t n : frame) frame_text.push_back(cat(n));
    const std::string src =
        cat("int[*] main(int[*] A, int[*] C) {\n  o = with {\n", generators, "  } : genarray([",
            join(frame_text, ", "), "], ", rng.uniform(1, 9), ");\n  return (o);\n}\n");
    SCOPED_TRACE(cat("seed ", seed, ":\n", src));
    const sac::Module m = sac::parse(src);
    const sac::CompiledFunction cf =
        sac::compile(m, "main",
                     {sac::ArgSpec::array(sac::ElemType::Int, Shape(dims.at("A"))),
                      sac::ArgSpec::array(sac::ElemType::Int, Shape(dims.at("C")))});
    CudaProgram p = CudaProgram::plan(cf);
    const std::vector<sac::Value> args{
        sac::Value(IntArray::generate(Shape(dims.at("A")),
                                      [](const Index& i) { return i[0] * 5 - 11; })),
        sac::Value(IntArray::generate(Shape(dims.at("C")),
                                      [](const Index& i) { return 7 - i.back() * 3; }))};
    const std::string expected = outcome_of([&] {
      return run_sequential(cf, args, gpu::i7_930(), true).result;
    });
    for (const gpu::BackendKind backend : {gpu::BackendKind::Host, gpu::BackendKind::Sim}) {
      gpu::VirtualGpu device(gpu::gtx480(), 3, backend);
      gpu::cuda::Runtime rt(device);
      gpu::Profiler host_profiler;
      EXPECT_EQ(outcome_of([&] { return p.run(rt, args, gpu::i7_930(), host_profiler, true); }),
                expected)
          << gpu::backend_kind_name(backend);
    }
    if (::testing::Test::HasFailure()) return;
    if (expected == "error") continue;
    for (const Step& st : p.steps()) {
      if (st.kind != Step::Kind::Kernels || st.group.target != "o") continue;
      (st.group.needs_default_fill ? filled : unfilled) += 1;
      if (st.group.needs_default_fill && points >= Shape(frame).elements()) {
        ++overlaps_reaching_the_frame_size;
      }
    }
  }
  EXPECT_GT(filled, 80);
  EXPECT_GT(unfilled, 50);
  EXPECT_GT(overlaps_reaching_the_frame_size, 15);
}

// --- compiled host loop nests ---------------------------------------------------

/// The result of a program, or the text of its error.
std::string outcome_text(const std::function<sac::Value()>& run) {
  try {
    const sac::Value v = run();
    std::string out = v.shape().to_string() + ":";
    for (std::int64_t e = 0; e < v.ints().elements(); ++e) out += cat(" ", v.ints()[e]);
    return out;
  } catch (const Error& e) {
    return cat("error: ", e.what());
  }
}

/// One random loop nest program: a copy of B into O (and of C into P),
/// a perfect nest of literal loops storing into them, and a copy of O
/// returned.
struct NestCase {
  std::string src;
  Index a_dims;
  Index o_dims;
  bool collides = false;  ///< some store index folds several points together
};

NestCase random_nest(Rng& rng) {
  NestCase c;
  const std::int64_t rank = rng.uniform(1, 3);
  struct Loop {
    std::string var;
    std::int64_t lb;
    std::int64_t step;
    std::int64_t extent;
  };
  std::vector<Loop> loops;
  constexpr std::int64_t kLaneExtents[] = {1, 2, kLanes - 1, kLanes, kLanes + 1};
  // One dimension (mostly the innermost) gets a lane-sized extent.
  const std::int64_t wide = rng.chance(50) ? rank - 1 : rng.uniform(0, rank - 1);
  for (std::int64_t d = 0; d < rank; ++d) {
    const std::int64_t extent =
        d == wide ? kLaneExtents[rng.uniform(0, 4)] : rng.uniform(1, 3);
    loops.push_back({kIndexNames[static_cast<std::size_t>(d)], rng.uniform(0, 3),
                     rng.uniform(1, 3), extent});
  }
  auto last = [](const Loop& l) { return l.lb + l.step * (l.extent - 1); };
  // The coordinate t of a loop: (v - lb) / step.
  auto coord = [](const Loop& l) { return cat("(", l.var, " - ", l.lb, ") / ", l.step); };
  for (const Loop& l : loops) {
    c.a_dims.push_back(last(l) + 1 + (rng.chance(10) ? -1 : rng.uniform(0, 2)));
  }
  // Each target dimension follows a loop, mostly a loop of its own.
  const std::int64_t o_rank = rng.uniform(1, rank);
  std::vector<std::size_t> o_var;
  for (std::int64_t k = 0; k < o_rank; ++k) {
    o_var.push_back(static_cast<std::size_t>(rng.chance(75) ? (k + rank - o_rank) % rank
                                                            : rng.uniform(0, rank - 1)));
    const std::int64_t e = loops[o_var.back()].extent;
    c.o_dims.push_back(std::max<std::int64_t>(1, e + (rng.chance(15) ? -1 : rng.uniform(0, 2))));
  }
  auto component = [&](std::size_t k) {
    const Loop& l = loops[o_var[k]];
    const Loop& w = rng.pick(loops);
    const std::int64_t e = c.o_dims[k];
    switch (rng.uniform(0, 7)) {
      case 0:
      case 1: return coord(l);
      case 2: return cat("(", coord(l), " + ", rng.uniform(0, 2), ") % ", e);
      case 3:
        c.collides = true;
        return cat("(", l.var, " + ", w.var, ") % ", e);
      case 4:
        c.collides = true;
        return cat(l.var, " / 2");
      case 5:
        c.collides = true;
        return cat(rng.uniform(0, e - 1));
      case 6: return cat(e - 1, " - ", coord(l));
      default:
        c.collides = true;
        return cat("(3 * ", l.var, " + ", w.var, ") % ", e);
    }
  };
  auto value = [&] {
    std::string load = "A[[";
    for (std::size_t d = 0; d < loops.size(); ++d) load += cat(d ? ", " : "", loops[d].var);
    load += "]]";
    const Loop& l = rng.pick(loops);
    switch (rng.uniform(0, 4)) {
      case 0: return cat(load, " * 3 - ", l.var);
      case 1: return cat(l.var, " * 7 + ", rng.pick(loops).var);
      case 2: return cat("min(", l.var, ", 3) + ", load);
      case 3: return cat("(", l.var, " + 5) / 3 - ", l.var, " % 4");
      default: {
        // Now and then the nest reads what it stores to, which keeps
        // the step on the interpreter.
        if (!rng.chance(15)) return cat(load, " + ", rng.uniform(-9, 9));
        std::vector<std::string> zeros(o_var.size(), "0");
        return cat(load, " + O[[", join(zeros, ", "), "]]");
      }
    }
  };
  const bool two_targets = rng.chance(20);
  const std::int64_t stores = rng.chance(30) ? 2 : 1;
  std::string body;
  for (std::int64_t st = 0; st < stores; ++st) {
    std::vector<std::string> comps;
    for (std::size_t k = 0; k < o_var.size(); ++k) comps.push_back(component(k));
    body += cat(st == 1 && two_targets ? "P" : "O", "[[", join(comps, ", "), "]] = ", value(),
                "; ");
  }
  std::string nest = body;
  for (auto l = loops.rbegin(); l != loops.rend(); ++l) {
    const bool le = rng.chance(50);
    const std::int64_t bound = le ? last(*l) + rng.uniform(0, l->step - 1)
                                  : last(*l) + 1 + rng.uniform(0, l->step - 1);
    nest = cat("for (", l->var, " = ", l->lb, "; ", l->var, le ? " <= " : " < ", bound, "; ",
               l->var, " = ", l->var, " + ", l->step, ") { ", nest, "} ");
  }
  c.src = cat("int[*] main(int[*] A, int[*] B, int[*] C) {\n  O = B;\n  P = C;\n  ", nest,
              "\n  R = O;\n  return (R);\n}\n");
  return c;
}

TEST(HostNestOracle, RandomNestsMatchTheInterpreter) {
  // Nests and kernel bodies run on poisoned tape scratch.
  const testsupport::PoisonedTapeScratch poisoned;
  int compiled = 0;
  int interpreted = 0;
  int results = 0;
  int store_errors = 0;
  int colliding = 0;
  int injective_walks = 0;
  int multi_block = 0;
  std::map<std::string, int> reasons;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 104729);
    const NestCase nc = random_nest(rng);
    SCOPED_TRACE(cat("seed ", seed, ":\n", nc.src));
    const sac::Module m = sac::parse(nc.src);
    const Shape a(nc.a_dims);
    const Shape o(nc.o_dims);
    const sac::CompiledFunction cf =
        sac::compile(m, "main",
                     {sac::ArgSpec::array(sac::ElemType::Int, a),
                      sac::ArgSpec::array(sac::ElemType::Int, o),
                      sac::ArgSpec::array(sac::ElemType::Int, o)});
    CudaProgram p = CudaProgram::plan(cf);
    std::vector<sac::Value> args{
        sac::Value(IntArray::generate(a, [](const Index& i) {
          std::int64_t h = 5;
          for (std::int64_t x : i) h = h * 31 + x;
          return h % 97 - 48;
        })),
        sac::Value(IntArray(o, -1)), sac::Value(IntArray(o, -2))};
    const std::string expected =
        outcome_text([&] { return run_sequential(cf, args, gpu::i7_930(), true).result; });
    for (const gpu::BackendKind backend : {gpu::BackendKind::Host, gpu::BackendKind::Sim}) {
      gpu::VirtualGpu device(gpu::gtx480(), 2, backend);
      gpu::cuda::Runtime rt(device);
      gpu::Profiler host_profiler;
      EXPECT_EQ(outcome_text([&] { return p.run(rt, args, gpu::i7_930(), host_profiler, true); }),
                expected)
          << gpu::backend_kind_name(backend);
    }
    if (::testing::Test::HasFailure()) return;
    ASSERT_EQ(p.host_block_count(), 1);
    const HostBlock& block = p.steps().front().host;
    if (!block.compiled()) {
      // A block the plan cannot prove says why, and stays interpreted.
      EXPECT_FALSE(block.interpreted_because.empty());
      ++reasons[block.interpreted_because];
      ++interpreted;
      continue;
    }
    ++compiled;
    // The optimizer drops the copy into P when no store reaches P.
    const auto op = std::find_if(block.ops.begin(), block.ops.end(),
                                 [](const HostOp& o) { return o.nest.has_value(); });
    ASSERT_NE(op, block.ops.end());
    const HostNest& nest = *op->nest;
    if (nest.walk_dim + 1 != nest.lattice.rank()) ++injective_walks;
    if (nest.lattice.dims[nest.walk_dim].extent > kLanes) ++multi_block;
    if (nc.collides) ++colliding;
    if (expected.rfind("error: index", 0) == 0) {
      ++store_errors;
    } else {
      ++results;
    }
  }
  // The sweep must reach every path it claims to.
  EXPECT_GT(compiled, 200);
  EXPECT_GT(interpreted, 30);
  EXPECT_GT(results, 150);
  EXPECT_GT(store_errors, 20);
  EXPECT_GT(colliding, 100);
  EXPECT_GT(injective_walks, 4);
  EXPECT_GT(multi_block, 25);
  EXPECT_GE(reasons.size(), 2u);
}

// The paper's specialised output tiler: one store proven in bounds and
// injective walks the longest loop; a folding store keeps the innermost
// loop, so the last writer wins as in the interpreter; a store beyond the
// array raises the interpreter's text.
TEST(HostNestOracle, WalkAndErrorsOfTheTilerShape) {
  auto compile = [](const std::string& store, const Index& target) {
    const sac::Module m = sac::parse(
        cat("int[*] main(int[*] X, int[*] Z) {\n  B = Z;\n  for (i = 0; i < 6; i++) {\n"
            "    for (j = 0; j < 200; j++) {\n      for (k = 0; k < 3; k++) {\n        ",
            store, "\n      }\n    }\n  }\n  return (B);\n}\n"));
    return sac::compile(m, "main",
                        {sac::ArgSpec::array(sac::ElemType::Int, Shape{6, 200, 3}),
                         sac::ArgSpec::array(sac::ElemType::Int, Shape(target))});
  };
  const std::vector<sac::Value> args_for_600{
      sac::Value(IntArray::generate(Shape{6, 200, 3},
                                    [](const Index& i) { return i[0] * 1000 + i[1] * 3 + i[2]; })),
      sac::Value(IntArray(Shape{6, 600}))};
  struct Case {
    std::string store;
    std::size_t walk;
  };
  for (const Case& c : {Case{"B[[i % 6, (3 * j + k) % 600]] = X[[i, j, k]];", 1},
                        Case{"B[[i % 6, (j + k) % 600]] = X[[i, j, k]];", 2},
                        Case{"B[[i, 3 * j + k + 1]] = X[[i, j, k]];", 2}}) {
    SCOPED_TRACE(c.store);
    const sac::CompiledFunction cf = compile(c.store, {6, 600});
    CudaProgram p = CudaProgram::plan(cf);
    ASSERT_EQ(p.compiled_host_block_count(), 1) << p.steps().front().host.interpreted_because;
    const HostOp& op = p.steps().front().host.ops.at(1);
    ASSERT_TRUE(op.nest.has_value());
    EXPECT_EQ(op.nest->walk_dim, c.walk);
    const std::string expected =
        outcome_text([&] { return run_sequential(cf, args_for_600, gpu::i7_930(), true).result; });
    gpu::VirtualGpu device(gpu::gtx480(), 1, gpu::BackendKind::Host);
    gpu::cuda::Runtime rt(device);
    gpu::Profiler host_profiler;
    std::vector<sac::Value> args = args_for_600;
    EXPECT_EQ(outcome_text([&] { return p.run(rt, args, gpu::i7_930(), host_profiler, true); }),
              expected);
  }
  // The last store's index is one past the row: the interpreter's text.
  const sac::CompiledFunction cf = compile("B[[i, 3 * j + k + 1]] = X[[i, j, k]];", {6, 600});
  EXPECT_EQ(
      outcome_text([&] { return run_sequential(cf, args_for_600, gpu::i7_930(), true).result; }),
      "error: index [0,600] out of bounds for shape [6,600]");
}

// The loop variables outlive a compiled nest as they outlive the
// interpreted one: one step past their last value, and only for loops
// that their outer loops entered. A later interpreted step reads the
// outermost one (the type checker scopes the inner ones to the nest).
TEST(HostNestOracle, LoopVariablesEndAsInTheInterpreter) {
  for (const auto& [outer, inner] : {std::pair{"i < 7", "j <= 9"}, std::pair{"i < 7", "j < 2"},
                                     std::pair{"i < 1", "j <= 9"}}) {
    const std::string src =
        cat("int[*] main(int[*] B) {\n  O = B;\n  for (i = 1; ", outer,
            "; i = i + 2) {\n    for (j = 2; ", inner,
            "; j = j + 3) {\n      O[[i % 4]] = j;\n    }\n  }\n"
            "  T = with { ([0] <= [x] < [4]) : O[[x]] * 2; } : genarray([4]);\n"
            "  S = with { ([0] <= [x] < [4]) : T[[x]] + 100 * i; } : genarray([4]);\n"
            "  return (S);\n}\n");
    SCOPED_TRACE(src);
    // Without WLF the kernel of T stays between the nest and S, which
    // reads `i` on the host.
    const sac::CompiledFunction cf =
        sac::compile(sac::parse(src), "main", {sac::ArgSpec::array(sac::ElemType::Int, Shape{4})},
                     sac::CompileOptions{.enable_wlf = false});
    CudaProgram p = CudaProgram::plan(cf);
    ASSERT_GE(p.host_block_count(), 1);
    EXPECT_TRUE(p.steps().front().host.compiled()) << p.steps().front().host.interpreted_because;
    const std::vector<sac::Value> args{sac::Value(IntArray(Shape{4}, 5))};
    const std::string expected =
        outcome_text([&] { return run_sequential(cf, args, gpu::i7_930(), true).result; });
    gpu::VirtualGpu device(gpu::gtx480(), 1, gpu::BackendKind::Host);
    gpu::cuda::Runtime rt(device);
    gpu::Profiler host_profiler;
    std::vector<sac::Value> run_args = args;
    EXPECT_EQ(outcome_text([&] { return p.run(rt, run_args, gpu::i7_930(), host_profiler, true); }),
              expected);
  }
}

}  // namespace
}  // namespace saclo::sac_cuda
