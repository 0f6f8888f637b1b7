#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/pipelines.hpp"
#include "apps/downscaler/sac_source.hpp"
#include "gaspard/chain.hpp"
#include "opt/search.hpp"
#include "sac/parser.hpp"
#include "sac/pipeline.hpp"
#include "sac/typecheck.hpp"
#include "sac_cuda/program.hpp"

namespace perfbench {

namespace {

using saclo::apps::DownscalerConfig;
using saclo::serve::Route;

const std::vector<std::string> kRoutes = {"sacng", "sacg", "gaspard_o0", "gaspard_o2"};
// Kernels of the paper-geometry programs: the 4 + 6 generator kernels
// of the non-generic SaC filters, the 6 per-task GASPARD kernels at
// opt 0 and the single fused kernel at opt 2.
const std::vector<std::string> kSacKernels = {
    "hfilter_nongeneric_w0_g0", "hfilter_nongeneric_w0_g1", "hfilter_nongeneric_w0_g2",
    "hfilter_nongeneric_w0_g3", "vfilter_nongeneric_w0_g0", "vfilter_nongeneric_w0_g1",
    "vfilter_nongeneric_w0_g2", "vfilter_nongeneric_w0_g3", "vfilter_nongeneric_w0_g4",
    "vfilter_nongeneric_w0_g5"};
const std::vector<std::string> kGaspardKernels = {"KRN_bhf", "KRN_bvf", "KRN_ghf",
                                                  "KRN_gvf", "KRN_rhf", "KRN_rvf",
                                                  "KRN_rhf_rvf_bhf_bvf_ghf_gvf"};

constexpr int kIssueFrames = 6;  // timing-only frames per kind for frame_issue_us
constexpr double kMiB = 1024.0 * 1024.0;

std::vector<CatalogEntry> build_per_layer_catalog() {
  std::vector<CatalogEntry> c = {
      {"sac.parse_ms", "ms", "lower"},
      {"sac.typecheck_ms", "ms", "lower"},
      {"sac.compile_ms", "ms", "lower"},
      {"sac.wlf_folds", "count", "higher"},
      {"sac_cuda.plan_ms", "ms", "lower"},
      {"sac_cuda.kernels_per_frame", "count", "lower"},
  };
  for (const auto& k : kSacKernels) c.push_back({"sac_cuda.kernel_ns_per_item." + k, "ns", "lower"});
  c.push_back({"arrayol.model_build_ms", "ms", "lower"});
  c.push_back({"opt.optimize_ms.o1", "ms", "lower"});
  c.push_back({"opt.optimize_ms.o2", "ms", "lower"});
  c.push_back({"opt.rewrites", "count", "higher"});
  c.push_back({"gaspard.chain_build_ms", "ms", "lower"});
  c.push_back({"gaspard.kernels_per_frame", "count", "lower"});
  for (const auto& k : kGaspardKernels) c.push_back({"gaspard.kernel_ns_per_item." + k, "ns", "lower"});
  for (const auto& r : kRoutes) c.push_back({"apps.driver_build_ms." + r, "ms", "lower"});
  for (const auto& r : kRoutes) c.push_back({"apps.frame_issue_us." + r, "us", "lower"});
  for (const auto& r : kRoutes) c.push_back({"apps.frame_exec_ms." + r, "ms", "lower"});
  c.push_back({"gpu.kernel_busy_share", "ratio", "higher"});
  c.push_back({"gpu.h2d_mb_per_frame", "MB", "lower"});
  c.push_back({"gpu.d2h_mb_per_frame", "MB", "lower"});
  for (const auto& r : kRoutes) c.push_back({"gpu.sim_us_per_frame." + r, "us", "lower"});
  const std::vector<CatalogEntry> tail = {
      {"serve.submit_us", "us", "lower"},
      {"serve.queue_wait_ms", "ms", "lower"},
      {"serve.exec_ms", "ms", "lower"},
      {"serve.completion_us", "us", "lower"},
      {"serve.batches_formed", "count", "higher"},
      {"serve.preemptions", "count", "lower"},
      {"serve.device_util", "ratio", "higher"},
      {"serve.alloc_hit_rate", "ratio", "higher"},
      {"serve.peak_device_mb", "MB", "lower"},
      {"obs.scrape_ms", "ms", "lower"},
      {"obs.trace_export_ms", "ms", "lower"},
      {"obs.trace_mb", "MB", "lower"},
      {"obs.events_dropped", "count", "lower"},
      {"bench.generator_lag_ms", "ms", "lower"},
      {"bench.trace_overhead", "ratio", "lower"},
  };
  c.insert(c.end(), tail.begin(), tail.end());
  return c;
}

/// Sums (build times) or averages (per-frame figures) per route suffix.
struct RouteAcc {
  std::map<std::string, double> sum;
  std::map<std::string, int> count;
  void add(const std::string& route, double v) {
    sum[route] += v;
    ++count[route];
  }
};

struct KernelAcc {
  std::map<std::string, double> us;
  std::map<std::string, double> items;  // calls * work items
};

/// Kernel rows recorded on `gpu` since `before` (name -> calls, us).
std::map<std::string, std::pair<std::int64_t, double>> kernel_rows(
    const saclo::gpu::VirtualGpu& gpu) {
  std::map<std::string, std::pair<std::int64_t, double>> rows;
  for (const auto& row : gpu.profiler().rows()) {
    if (row.kind == saclo::gpu::OpKind::Kernel) rows[row.name] = {row.calls, row.total_us};
  }
  return rows;
}

saclo::apps::SacDownscaler::Options sac_options(const Workload& w, const JobKind& k,
                                                saclo::gpu::BackendKind backend) {
  saclo::apps::SacDownscaler::Options o;
  o.generic = k.spec.route == Route::SacGeneric;
  o.device = w.options.device;
  o.host = w.options.host;
  o.workers = w.options.workers_per_device;
  o.backend = backend;
  o.async_streams = true;
  return o;
}

saclo::apps::GaspardDownscaler::Options gaspard_options(const Workload& w, const JobKind& k,
                                                        saclo::gpu::BackendKind backend) {
  saclo::apps::GaspardDownscaler::Options o;
  o.device = w.options.device;
  o.workers = w.options.workers_per_device;
  o.backend = backend;
  o.rgb = k.spec.channels == 3;
  o.async_streams = true;
  o.opt_level = k.spec.opt_level;
  return o;
}

/// One frame-loop call of either driver, as a JobResult-shaped summary.
struct LoopRun {
  saclo::apps::OpBreakdown ops;
  double sim_wall_us = 0;
  saclo::IntArray last_output;
};

}  // namespace

const std::vector<CatalogEntry>& per_layer_catalog() {
  static const std::vector<CatalogEntry> c = build_per_layer_catalog();
  return c;
}

const std::vector<CatalogEntry>& end_to_end_catalog() {
  static const std::vector<CatalogEntry> c = {
      {"setup_s", "s", "lower"},
      {"frames_per_s", "frames/s", "higher"},
      {"latency_p50_ms", "ms", "lower"},
      {"gold_slo_attainment", "ratio", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return c;
}

void LayerReport::set(const std::string& name, double value) {
  auto it = metrics.find(name);
  if (it == metrics.end()) throw std::logic_error("metric not in the catalog: " + name);
  it->second.value = value;
  absent.erase(name);
}

void LayerReport::mark_absent(const std::string& name, const std::string& why) {
  set(name, 0);
  absent[name] = why;
}

LayerReport empty_layer_report() {
  LayerReport r;
  for (const CatalogEntry& e : per_layer_catalog()) {
    r.metrics[e.name] = Metric{0, e.unit};
    r.absent[e.name] = "not measured on this workload";
  }
  return r;
}

double nearest_rank(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[rank - 1];
}

void replay_components(const Workload& w, const std::vector<Reference>& refs,
                       SpanRecorder& spans, LayerReport& report) {
  namespace sac = saclo::sac;
  double parse_ms = 0, typecheck_ms = 0, compile_ms = 0, plan_ms = 0;
  double model_ms = 0, chain_ms = 0;
  double folds = 0, rewrites = 0;
  std::map<int, double> optimize_ms;  // opt level -> ms (summed over kinds)
  RouteAcc driver_ms, issue_us, exec_ms, sim_us;
  std::vector<double> sac_kpf, gaspard_kpf;
  double h2d_mb = 0, d2h_mb = 0;
  KernelAcc kernels;
  double kernel_busy_us = 0, exec_wall_us = 0;
  std::map<std::string, std::int64_t> items_of;  // kernel -> work items
  bool have_sac = false, have_gaspard = false;

  for (std::size_t ki = 0; ki < w.kinds.size(); ++ki) {
    const JobKind& k = w.kinds[ki];
    const DownscalerConfig& cfg = k.spec.config;
    const std::uint64_t job = 1000000 + ki;  // the replayed kind's job id in the trace
    ScopedSpan kind_span(&spans, "bench.kind." + k.label, 0, job);
    const std::uint64_t parent = kind_span.id();
    const int ch = k.spec.channels;

    // Bytes moved per frame, from shapes (4 bytes per element, as the
    // transfer model charges): the frame up, the result down, and on the
    // generic tiler the intermediate's device->host->device round trip.
    const double mid = k.spec.route == Route::SacGeneric
                           ? static_cast<double>(cfg.mid_shape().elements())
                           : 0.0;
    h2d_mb += ch * (static_cast<double>(cfg.frame_shape().elements()) + mid) * 4 / kMiB;
    d2h_mb += ch * (static_cast<double>(cfg.out_shape().elements()) + mid) * 4 / kMiB;

    // -- compile chain through each layer's public functions ---------------
    std::function<LoopRun(saclo::gpu::VirtualGpu&, int, int)> run_frames;
    std::unique_ptr<saclo::apps::SacDownscaler> sac_driver;
    std::unique_ptr<saclo::apps::GaspardDownscaler> gaspard_driver;
    if (k.spec.route != Route::Gaspard) {
      have_sac = true;
      const bool generic = k.spec.route == Route::SacGeneric;
      const std::string source = saclo::apps::downscaler_sac_source(cfg);
      ScopedSpan p(&spans, "sac.parse", parent, job);
      sac::Module module = sac::parse(source);
      parse_ms += p.finish();
      ScopedSpan t(&spans, "sac.typecheck", parent, job);
      sac::typecheck(module);
      typecheck_ms += t.finish();
      ScopedSpan c(&spans, "sac.compile", parent, job);
      const sac::CompiledFunction h = sac::compile(
          module, generic ? "hfilter_generic" : "hfilter_nongeneric",
          {sac::ArgSpec::array(sac::ElemType::Int, cfg.frame_shape())});
      const sac::CompiledFunction v = sac::compile(
          module, generic ? "vfilter_generic" : "vfilter_nongeneric",
          {sac::ArgSpec::array(sac::ElemType::Int, cfg.mid_shape())});
      compile_ms += c.finish();
      folds += h.stats.folds + v.stats.folds;
      ScopedSpan pl(&spans, "sac_cuda.plan", parent, job);
      const auto hp = saclo::sac_cuda::CudaProgram::plan(h);
      const auto vp = saclo::sac_cuda::CudaProgram::plan(v);
      plan_ms += pl.finish();
      for (const auto* prog : {&hp, &vp}) {
        for (const auto& step : prog->steps()) {
          for (const auto& kern : step.group.kernels) items_of[kern.name] = kern.threads;
        }
      }
      ScopedSpan d(&spans, "apps.driver_build", parent, job);
      sac_driver = std::make_unique<saclo::apps::SacDownscaler>(
          cfg, sac_options(w, k, w.options.backend));
      driver_ms.add(k.route, d.finish());
      run_frames = [&, ch](saclo::gpu::VirtualGpu& gpu, int frames, int exec) {
        auto r = sac_driver->run_cuda_chain_on(gpu, frames, ch, exec);
        LoopRun out{r.h, r.wall_us, std::move(r.last_output)};
        out.ops += r.v;
        return out;
      };
    } else {
      have_gaspard = true;
      ScopedSpan m(&spans, "arrayol.model_build", parent, job);
      saclo::aol::Model model = ch == 3 ? saclo::apps::build_downscaler_model(cfg)
                                        : saclo::apps::build_single_channel_model(cfg);
      model_ms += m.finish();
      if (k.spec.opt_level > 0) {
        ScopedSpan o(&spans, "opt.optimize", parent, job);
        saclo::opt::SearchOptions search;
        search.level = k.spec.opt_level;
        search.device = w.options.device;
        saclo::opt::OptResult optimized = saclo::opt::optimize(model, search);
        optimize_ms[k.spec.opt_level] += o.finish();
        rewrites += static_cast<double>(optimized.rewrites.size());
        model = std::move(optimized.model);
      }
      ScopedSpan b(&spans, "gaspard.chain_build", parent, job);
      const auto app = saclo::gaspard::OpenClApplication::build(std::move(model));
      chain_ms += b.finish();
      for (const auto& kern : app.kernels()) items_of[kern.name] = kern.work_items;
      ScopedSpan d(&spans, "apps.driver_build", parent, job);
      gaspard_driver = std::make_unique<saclo::apps::GaspardDownscaler>(
          cfg, gaspard_options(w, k, w.options.backend));
      driver_ms.add(k.route, d.finish());
      run_frames = [&](saclo::gpu::VirtualGpu& gpu, int frames, int exec) {
        auto r = gaspard_driver->run_on(gpu, frames, exec);
        LoopRun out{r.h, r.wall_us, std::move(r.last_output)};
        out.ops += r.v;
        return out;
      };
    }

    const auto fresh_gpu = [&](saclo::gpu::BackendKind backend) {
      return std::make_unique<saclo::gpu::VirtualGpu>(w.options.device,
                                                      w.options.workers_per_device, backend);
    };

    // -- the job exactly as reference_run runs it, on a fresh device ----
    {
      ScopedSpan s(&spans, "apps.job_replay", parent, job);
      auto gpu = fresh_gpu(w.options.backend);
      const LoopRun r = run_frames(*gpu, k.spec.frames, k.spec.effective_exec_frames());
      s.finish();
      saclo::serve::JobResult as_job;
      as_job.frames = k.spec.frames;
      as_job.ops = r.ops;
      as_job.last_output = r.last_output;
      const Reference& ref = refs[ki];
      std::string why = mismatch(w, ref, as_job);
      if (why.empty() && w.options.backend == saclo::gpu::BackendKind::Sim &&
          r.sim_wall_us != ref.sim_wall_us) {
        why = "simulated wall time";
      }
      ++report.acct.submitted;
      ++report.acct.completed;
      if (!why.empty()) {
        ++report.acct.mismatches;
        report.mismatch_notes.push_back("replayed " + k.label + ": " + why);
      }
      const double kpf = static_cast<double>(r.ops.kernel_launches) / k.spec.frames;
      (k.spec.route == Route::Gaspard ? gaspard_kpf : sac_kpf).push_back(kpf);
    }

    // -- timing-only frame issue on the workload's backend ---------------
    {
      auto gpu = fresh_gpu(w.options.backend);
      run_frames(*gpu, 1, 0);  // first-touch allocations
      ScopedSpan s(&spans, "apps.frame_issue", parent, job);
      const LoopRun r = run_frames(*gpu, kIssueFrames, 0);
      issue_us.add(k.route, s.finish() * 1000.0 / kIssueFrames);
      if (w.options.backend == saclo::gpu::BackendKind::Sim) {
        sim_us.add(k.route, r.sim_wall_us / kIssueFrames);
      }
    }
    if (w.options.backend != saclo::gpu::BackendKind::Sim) {
      // The simulated per-frame time is a behaviour guard: take it on
      // `sim`, where it is deterministic.
      auto gpu = fresh_gpu(saclo::gpu::BackendKind::Sim);
      run_frames(*gpu, 1, 0);
      const LoopRun r = run_frames(*gpu, 2, 0);
      sim_us.add(k.route, r.sim_wall_us / 2);
    }

    // -- executed frames (workloads that execute) ------------------------
    if (w.executes) {
      auto gpu = fresh_gpu(w.options.backend);
      run_frames(*gpu, 1, 0);
      const auto rows_before = kernel_rows(*gpu);
      const int frames = k.spec.frames;
      ScopedSpan s(&spans, "apps.frame_exec", parent, job);
      run_frames(*gpu, frames, frames);
      const double wall_ms = s.finish();
      exec_ms.add(k.route, wall_ms / frames);
      if (w.options.backend == saclo::gpu::BackendKind::Host) {
        exec_wall_us += wall_ms * 1000.0;
        for (const auto& [name, row] : kernel_rows(*gpu)) {
          std::int64_t calls = row.first;
          double us = row.second;
          if (auto it = rows_before.find(name); it != rows_before.end()) {
            calls -= it->second.first;
            us -= it->second.second;
          }
          kernel_busy_us += us;
          if (auto it = items_of.find(name); it != items_of.end()) {
            kernels.us[name] += us;
            kernels.items[name] += static_cast<double>(calls * it->second);
          }
        }
      }
    }
  }

  // A level-1 optimizer pass over the first GASPARD kind's model, so the
  // O1 search is on the ledger even though no workload serves opt 1.
  for (const JobKind& k : w.kinds) {
    if (k.spec.route != Route::Gaspard) continue;
    const saclo::aol::Model model = k.spec.channels == 3
                                        ? saclo::apps::build_downscaler_model(k.spec.config)
                                        : saclo::apps::build_single_channel_model(k.spec.config);
    ScopedSpan o(&spans, "opt.optimize", 0, 0);
    saclo::opt::SearchOptions search;
    search.level = 1;
    search.device = w.options.device;
    saclo::opt::optimize(model, search);
    optimize_ms[1] += o.finish();
    break;
  }

  const std::string no_sac = "workload has no SaC jobs";
  const std::string no_gaspard = "workload has no GASPARD jobs";
  if (have_sac) {
    report.set("sac.parse_ms", parse_ms);
    report.set("sac.typecheck_ms", typecheck_ms);
    report.set("sac.compile_ms", compile_ms);
    report.set("sac.wlf_folds", folds);
    report.set("sac_cuda.plan_ms", plan_ms);
    report.set("sac_cuda.kernels_per_frame", median(sac_kpf));
  } else {
    for (const char* n : {"sac.parse_ms", "sac.typecheck_ms", "sac.compile_ms", "sac.wlf_folds",
                          "sac_cuda.plan_ms", "sac_cuda.kernels_per_frame"}) {
      report.mark_absent(n, no_sac);
    }
  }
  if (have_gaspard) {
    report.set("arrayol.model_build_ms", model_ms);
    report.set("gaspard.chain_build_ms", chain_ms);
    report.set("gaspard.kernels_per_frame", median(gaspard_kpf));
    report.set("opt.optimize_ms.o1", optimize_ms[1]);
    report.set("opt.rewrites", rewrites);
    if (optimize_ms.count(2) != 0) {
      report.set("opt.optimize_ms.o2", optimize_ms[2]);
    } else {
      report.mark_absent("opt.optimize_ms.o2", "workload has no opt-2 GASPARD jobs");
    }
  } else {
    for (const char* n : {"arrayol.model_build_ms", "gaspard.chain_build_ms",
                          "gaspard.kernels_per_frame", "opt.optimize_ms.o1",
                          "opt.optimize_ms.o2", "opt.rewrites"}) {
      report.mark_absent(n, no_gaspard);
    }
  }
  for (const std::string& r : kRoutes) {
    if (driver_ms.count.count(r) == 0) {
      for (const char* p : {"apps.driver_build_ms.", "apps.frame_issue_us.", "apps.frame_exec_ms.",
                            "gpu.sim_us_per_frame."}) {
        report.mark_absent(p + r, "workload has no " + r + " jobs");
      }
      continue;
    }
    report.set("apps.driver_build_ms." + r, driver_ms.sum[r]);
    report.set("apps.frame_issue_us." + r, issue_us.sum[r] / issue_us.count[r]);
    report.set("gpu.sim_us_per_frame." + r, sim_us.sum[r] / sim_us.count[r]);
    if (exec_ms.count.count(r) != 0) {
      report.set("apps.frame_exec_ms." + r, exec_ms.sum[r] / exec_ms.count[r]);
    } else {
      report.mark_absent("apps.frame_exec_ms." + r, "no frame executes on this workload");
    }
  }
  const double kinds = static_cast<double>(w.kinds.size());
  report.set("gpu.h2d_mb_per_frame", h2d_mb / kinds);
  report.set("gpu.d2h_mb_per_frame", d2h_mb / kinds);

  const bool host = w.executes && w.options.backend == saclo::gpu::BackendKind::Host;
  const std::string not_measured =
      w.executes ? "kernel times are simulated on this workload's backend"
                 : "no kernel executes on this workload";
  if (host && exec_wall_us > 0) {
    report.set("gpu.kernel_busy_share", kernel_busy_us / exec_wall_us);
  } else {
    report.mark_absent("gpu.kernel_busy_share", not_measured);
  }
  for (const auto* list : {&kSacKernels, &kGaspardKernels}) {
    const std::string prefix =
        list == &kSacKernels ? "sac_cuda.kernel_ns_per_item." : "gaspard.kernel_ns_per_item.";
    for (const std::string& name : *list) {
      const auto it = kernels.items.find(name);
      if (host && it != kernels.items.end() && it->second > 0) {
        report.set(prefix + name, kernels.us[name] * 1000.0 / it->second);
      } else {
        report.mark_absent(prefix + name, host ? "kernel not launched by this workload's jobs"
                                               : not_measured);
      }
    }
  }
}

void serving_layers(const Workload& w, const RunResult& run, LayerReport& report) {
  const LoopResult& traced = run.traced;
  std::vector<double> submit_us, wait_ms, exec_ms, completion_us;
  double exec_total_us = 0;
  for (const JobRecord& j : traced.jobs) {
    submit_us.push_back(j.submit_call_us);
    wait_ms.push_back(j.queue_wait_us / 1000.0);
    exec_ms.push_back(j.exec_us / 1000.0);
    // What the client waits beyond the runtime's own wait + exec split:
    // the submit call, placement, and the promise-to-future hand-off.
    completion_us.push_back(j.latency_ms * 1000.0 - j.queue_wait_us - j.exec_us);
    exec_total_us += j.exec_us;
  }
  report.set("serve.submit_us", median(submit_us));
  report.set("serve.queue_wait_ms", median(wait_ms));
  report.set("serve.exec_ms", median(exec_ms));
  if (w.open_loop) {
    report.mark_absent("serve.completion_us",
                       "open loop: futures are collected after the generator ends");
  } else {
    report.set("serve.completion_us", median(completion_us));
  }
  report.set("serve.batches_formed", static_cast<double>(traced.fleet.batches));
  report.set("serve.preemptions", static_cast<double>(traced.fleet.preemptions));
  // Real busy share of the dispatchers: job execution time over the
  // devices' wall time.
  const double device_s = w.options.devices * traced.elapsed_s;
  report.set("serve.device_util", device_s > 0 ? exec_total_us / 1e6 / device_s : 0);
  const std::int64_t allocs = traced.fleet.alloc_hits + traced.fleet.alloc_misses;
  report.set("serve.alloc_hit_rate",
             allocs > 0 ? static_cast<double>(traced.fleet.alloc_hits) / allocs : 0.0);
  report.set("serve.peak_device_mb", traced.fleet.peak_device_mb);
  report.set("obs.scrape_ms", median(traced.scrape_ms));
  report.set("obs.trace_export_ms", median(traced.export_ms));
  report.set("obs.trace_mb", traced.trace_mb);
  report.set("obs.events_dropped", static_cast<double>(traced.fleet.events_dropped));
  if (w.open_loop) {
    report.set("bench.generator_lag_ms", nearest_rank(traced.lags_ms, 0.99));
  } else {
    report.mark_absent("bench.generator_lag_ms", "closed loop: no arrival schedule");
  }
  const double untraced_p50 = latency_p50_ms(w, run.untraced);
  report.set("bench.trace_overhead",
             untraced_p50 > 0 ? latency_p50_ms(w, traced) / untraced_p50 - 1.0 : 0.0);
}

}  // namespace perfbench
