// Per-layer probes (see probes.h).
#include "probes.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <complex>
#include <stdexcept>

#include "mos/level1_batch.h"
#include "numeric/interpolate.h"
#include "numeric/linear.h"
#include "shard/coordinator.h"
#include "shard/wire.h"
#include "spice/ac.h"
#include "spice/dc.h"
#include "spice/mna.h"
#include "spice/noise.h"
#include "spice/tran.h"
#include "synth/netlist_builder.h"
#include "util/fingerprint.h"

namespace perfbench {

namespace {

// Repetitions of the kernel loops: enough that one loop spans well over a
// clock tick, few enough to keep the traced run short.
constexpr int kLuReps = 400;
constexpr int kMosReps = 4000;

template <typename T>
double time_lu_us(const num::Matrix<T>& a0, const std::vector<T>& b0) {
  num::Matrix<T> a = a0;
  num::LuFactors<T> f;
  std::vector<T> b = b0;
  num::lu_factor_in_place(&a, &f);  // sizes f's buffers before timing
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kLuReps; ++r) {
    a = a0;
    b = b0;
    num::lu_factor_in_place(&a, &f);
    num::lu_solve_in_place(f, &b);
  }
  return 1e6 * seconds_since(t0) / kLuReps;
}

}  // namespace

SimProbe probe_simulator(const tech::Technology& t,
                         const synth::OpAmpDesign& design, Tracer& tr) {
  SimProbe p;
  const ckt::Circuit c = synth::build_standalone_opamp(design, t);
  sim::OpResult op;
  {
    Tracer::Scope s(tr, "probe.sim.dc_operating_point");
    op = sim::dc_operating_point(c, t);
    p.dc_ms = 1e3 * s.elapsed();
  }
  if (!op.converged) {
    throw std::runtime_error("probe: standalone operating point did not converge");
  }
  {
    Tracer::Scope s(tr, "probe.sim.ac_analysis");
    const sim::AcResult ac = sim::ac_analysis(c, t, op, num::logspace(1.0, 1e9, 121), 1);
    p.ac_ms = 1e3 * s.elapsed();
    if (!ac.ok) throw std::runtime_error("probe: AC failed: " + ac.error);
  }
  {
    const auto out = c.find_node("out");
    Tracer::Scope s(tr, "probe.sim.noise_analysis");
    const sim::NoiseResult nr =
        sim::noise_analysis(c, t, op, out.value_or(ckt::kGround),
                            num::logspace(1e3, 1e7, 25));
    p.noise_ms = 1e3 * s.elapsed();
    if (!nr.ok) throw std::runtime_error("probe: noise failed: " + nr.error);
  }
  {
    sim::TranOptions to;
    to.tstop = 1e-5;
    to.dt = to.tstop / 1200.0;
    to.mode = sim::TranMode::kFixed;
    Tracer::Scope s(tr, "probe.sim.transient");
    const sim::TranResult tran = sim::transient(c, t, op, to);
    p.tran_ms = 1e3 * s.elapsed();
    if (!tran.ok) throw std::runtime_error("probe: transient failed: " + tran.error);
  }

  // Dense LU at the design's MNA size, on its real Jacobian at the
  // operating point (and that Jacobian with an imaginary diagonal for the
  // complex kernel).  Each repetition refills the matrix, as Newton does.
  const sim::NonlinearSystem sys(c, t);
  const std::size_t n = sys.layout().size();
  num::RealMatrix jac(n, n);
  std::vector<double> residual;
  sys.eval(op.solution, sim::NonlinearSystem::EvalOptions{}, &jac, &residual);
  {
    Tracer::Scope s(tr, "probe.lu.real");
    p.lu_real_us = time_lu_us(jac, residual);
  }
  {
    num::Matrix<std::complex<double>> cj(n, n);
    std::vector<std::complex<double>> rhs(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < n; ++k) cj(r, k) = jac(r, k);
      cj(r, r) += std::complex<double>(0.0, 1e-6);
      rhs[r] = residual[r];
    }
    Tracer::Scope s(tr, "probe.lu.complex");
    p.lu_complex_us = time_lu_us(cj, rhs);
  }

  // Device model: the design's devices at their operating-point bias.
  mos::CoreEvalBatch batch;
  const auto& fets = c.mosfets();
  batch.resize(fets.size());
  for (std::size_t i = 0; i < fets.size(); ++i) {
    const tech::MosParams& mp =
        fets[i].type == mos::MosType::kNmos ? t.nmos : t.pmos;
    batch.load_device(i, mp, fets[i].geom, fets[i].dvt);
    batch.vgs[i] = op.devices[i].vgs;
    batch.vds[i] = op.devices[i].vds;
    batch.vbs[i] = op.devices[i].vbs;
  }
  {
    Tracer::Scope s(tr, "probe.mos.evaluate_core_batch");
    for (int r = 0; r < kMosReps; ++r) mos::evaluate_core_batch(&batch);
    p.mos_eval_ns = 1e9 * s.elapsed() /
                    (static_cast<double>(kMosReps) * static_cast<double>(fets.size()));
  }
  return p;
}

WireProbe probe_wire(const yield::Request& request,
                     const yield::Outcome& outcome, Tracer& tr) {
  WireProbe w;
  shard::Writer req;
  shard::Writer res;
  {
    Tracer::Scope s(tr, "wire.encode");
    shard::put_spec(req, request.spec);
    if (request.is_yield) {
      shard::put_yield_params(req, request.params);
      shard::put_yield_result(res, outcome.yield);
    } else {
      shard::put_result(res, outcome.result);
    }
    w.encode_us = 1e6 * s.elapsed();
  }
  yield::Outcome back;
  back.is_yield = outcome.is_yield;
  {
    Tracer::Scope s(tr, "wire.decode");
    shard::Reader rq(req.bytes());
    shard::get_spec(rq);
    if (request.is_yield) shard::get_yield_params(rq);
    rq.expect_end();
    shard::Reader rr(res.bytes());
    if (request.is_yield) {
      back.yield = shard::get_yield_result(rr);
    } else {
      back.result = shard::get_result(rr);
    }
    rr.expect_end();
    w.decode_us = 1e6 * s.elapsed();
  }
  if (yield::outcome_json(back) != yield::outcome_json(outcome)) {
    throw std::runtime_error("wire round trip changed an outcome");
  }
  w.bytes = static_cast<double>(req.bytes().size() + res.bytes().size());
  return w;
}

double probe_spawn_ms(const std::string& worker_command,
                      const tech::Technology& tech, Tracer& tr) {
  // One one-shot worker with an empty batch: spawn, kConfig, kRun, read to
  // its EOF, reap.
  const shard::ScopedSigpipeIgnore sigpipe_guard;
  Tracer::Scope s(tr, "shard.spawn_worker_process");
  const shard::SpawnedWorker w = shard::spawn_worker_process(worker_command, false);
  shard::WorkerConfig config;
  config.tech = tech;
  config.synth.jobs = 1;
  config.tech_hash = util::fnv1a64(tech.canonical_string());
  config.opts_hash = util::fnv1a64(synth::canonical_string(config.synth));
  shard::Writer cw;
  shard::put_config(cw, config);
  shard::write_frame(w.to_fd, shard::FrameType::kConfig, cw.bytes());
  shard::write_frame(w.to_fd, shard::FrameType::kRun, "");
  ::close(w.to_fd);
  shard::Frame frame;
  while (shard::read_frame(w.from_fd, &frame)) {
  }
  ::close(w.from_fd);
  int status = 0;
  while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("spawn probe: worker did not exit cleanly");
  }
  return 1e3 * s.elapsed();
}

}  // namespace perfbench
