#include "spice/mna.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace oasys::sim {

namespace {

// Registry handles for the batched device-eval path, resolved once per
// process.  Both counters are per-work-item sums (one batch per eval call,
// one unit per device slot), so they are deterministic and jobs-invariant.
struct DeviceEvalMetrics {
  obs::Counter& batches =
      obs::Registry::global().counter("sim.device_eval.batches");
  obs::Counter& devices =
      obs::Registry::global().counter("sim.device_eval.devices");

  static DeviceEvalMetrics& get() {
    static DeviceEvalMetrics m;
    return m;
  }
};

}  // namespace

MnaLayout::MnaLayout(const ckt::Circuit& c)
    : num_nodes_(c.num_nodes()),
      num_vsources_(c.vsources().size()),
      size_(num_nodes_ - 1 + num_vsources_) {
  if (num_nodes_ < 2) {
    throw std::invalid_argument("circuit has no non-ground nodes");
  }
}

int MnaLayout::node_index(ckt::NodeId n) const {
  if (n == ckt::kGround) return -1;
  if (n < 0 || static_cast<std::size_t>(n) >= num_nodes_) {
    throw std::out_of_range("node id out of range for layout");
  }
  return n - 1;
}

std::size_t MnaLayout::branch_index(std::size_t vsource_pos) const {
  if (vsource_pos >= num_vsources_) {
    throw std::out_of_range("vsource index out of range");
  }
  return num_nodes_ - 1 + vsource_pos;
}

double MnaLayout::voltage(const std::vector<double>& x,
                          ckt::NodeId n) const {
  const int i = node_index(n);
  return i < 0 ? 0.0 : x[static_cast<std::size_t>(i)];
}

std::complex<double> MnaLayout::voltage(
    const std::vector<std::complex<double>>& x, ckt::NodeId n) const {
  const int i = node_index(n);
  return i < 0 ? std::complex<double>{} : x[static_cast<std::size_t>(i)];
}

NonlinearSystem::NonlinearSystem(const ckt::Circuit& c,
                                 const tech::Technology& t)
    : circuit_(&c), tech_(&t), layout_(c) {}

void fill_device_caps(const tech::Technology& t, const ckt::Mosfet& m,
                      double vd, double vg, double vs, double vb,
                      DeviceOp* op) {
  (void)vg;
  const tech::MosParams& p =
      m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
  const mos::GateCaps gc = mos::gate_caps(p, t.cox, m.geom, op->region);
  op->cgs = gc.cgs;
  op->cgd = gc.cgd;
  op->cgb = gc.cgb;
  // Junction reverse bias: for NMOS the drain junction is reverse biased
  // when vd > vb; for PMOS when vb > vd.
  const double sign = m.type == mos::MosType::kNmos ? 1.0 : -1.0;
  const double w_total = m.geom.w * m.geom.m;
  op->cdb = mos::junction_cap(p, t.diffusion_area(w_total),
                              t.diffusion_perimeter(w_total),
                              sign * (vd - vb));
  op->csb = mos::junction_cap(p, t.diffusion_area(w_total),
                              t.diffusion_perimeter(w_total),
                              sign * (vs - vb));
}

namespace {

// Index of the (type, node, bulk) junction in `jt`, appended if new.
std::uint32_t junction_index(JunctionTable* jt, double sign, int node,
                             int bulk, const tech::MosParams& p) {
  for (std::size_t j = 0; j < jt->size(); ++j) {
    if (jt->sign[j] == sign && jt->node[j] == node && jt->bulk[j] == bulk) {
      return static_cast<std::uint32_t>(j);
    }
  }
  jt->node.push_back(node);
  jt->bulk.push_back(bulk);
  jt->sign.push_back(sign);
  jt->pb.push_back(p.pb);
  jt->mj.push_back(p.mj);
  jt->mjsw.push_back(p.mjsw);
  // pow(1, y) is exactly 1: a tied junction's pair never changes.
  jt->pow_area.push_back(1.0);
  jt->pow_sw.push_back(1.0);
  return static_cast<std::uint32_t>(jt->size() - 1);
}

}  // namespace

void update_junction_caps(DeviceTable* table, const std::vector<double>& x) {
  JunctionTable& jt = table->junctions;
  const auto node_voltage = [&](int idx) {
    return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
  };
  for (std::size_t j = 0; j < jt.size(); ++j) {
    if (jt.node[j] == jt.bulk[j]) continue;
    // mos::junction_cap's denominators, term for term.
    const double vrev =
        jt.sign[j] * (node_voltage(jt.node[j]) - node_voltage(jt.bulk[j]));
    const double pb = jt.pb[j];
    const double v = std::max(vrev, -0.5 * pb);
    jt.pow_area[j] = std::pow(1.0 + v / pb, jt.mj[j]);
    jt.pow_sw[j] = std::pow(1.0 + v / pb, jt.mjsw[j]);
  }
}

void NonlinearSystem::build_device_table(DeviceTable* table) const {
  const auto& mosfets = circuit_->mosfets();
  const std::size_t n = mosfets.size();
  table->batch.resize(n);
  table->sign.resize(n);
  table->d.resize(n);
  table->g.resize(n);
  table->s.resize(n);
  table->b.resize(n);
  table->swapped.resize(n);
  table->gate_caps.resize(3 * n);
  table->cj_area.resize(n);
  table->cjsw_perim.resize(n);
  table->drain_junction.resize(n);
  table->source_junction.resize(n);
  JunctionTable& jt = table->junctions;
  jt.clear();
  const tech::Technology& t = *tech_;
  for (std::size_t k = 0; k < n; ++k) {
    const auto& m = mosfets[k];
    const tech::MosParams& p =
        m.type == mos::MosType::kNmos ? t.nmos : t.pmos;
    try {
      table->batch.load_device(k, p, m.geom, m.dvt);
    } catch (const std::invalid_argument& err) {
      throw std::invalid_argument("device '" + m.name + "': " + err.what());
    }
    const double sign = m.type == mos::MosType::kNmos ? 1.0 : -1.0;
    table->sign[k] = sign;
    table->d[k] = layout_.node_index(m.d);
    table->g[k] = layout_.node_index(m.g);
    table->s[k] = layout_.node_index(m.s);
    table->b[k] = layout_.node_index(m.b);
    for (const mos::Region r : {mos::Region::kCutoff, mos::Region::kTriode,
                                mos::Region::kSaturation}) {
      table->gate_caps[3 * k + static_cast<std::size_t>(r)] =
          mos::gate_caps(p, t.cox, m.geom, r);
    }
    const double w_total = m.geom.w * m.geom.m;
    table->cj_area[k] = p.cj * t.diffusion_area(w_total);
    table->cjsw_perim[k] = p.cjsw * t.diffusion_perimeter(w_total);
    table->drain_junction[k] =
        junction_index(&jt, sign, table->d[k], table->b[k], p);
    table->source_junction[k] =
        junction_index(&jt, sign, table->s[k], table->b[k], p);
  }
}

void NonlinearSystem::evaluate_devices(const std::vector<double>& x,
                                       DeviceTable* devices) const {
  DeviceTable& tab = *devices;
  mos::CoreEvalBatch& bat = tab.batch;
  const std::size_t ndev = tab.size();

  // Re-bias pass: map node voltages into the NMOS-like frame per slot
  // (PMOS sign flip, then drain/source exchange when cvd < cvs), exactly
  // the frame mapping at the top of mos::evaluate_terminal.
  auto node_voltage = [&](int idx) {
    return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
  };
  for (std::size_t k = 0; k < ndev; ++k) {
    const double sign = tab.sign[k];
    const double cvg = sign * node_voltage(tab.g[k]);
    double cvd = sign * node_voltage(tab.d[k]);
    double cvs = sign * node_voltage(tab.s[k]);
    const double cvb = sign * node_voltage(tab.b[k]);
    const bool swapped = cvd < cvs;
    if (swapped) std::swap(cvd, cvs);
    tab.swapped[k] = swapped ? 1 : 0;
    bat.vgs[k] = cvg - cvs;
    bat.vds[k] = cvd - cvs;
    bat.vbs[k] = cvb - cvs;
  }

  mos::evaluate_core_batch(&bat);
  DeviceEvalMetrics& dm = DeviceEvalMetrics::get();
  dm.batches.add();
  dm.devices.add(static_cast<std::uint64_t>(ndev));
}

void NonlinearSystem::eval(const std::vector<double>& x,
                           const EvalOptions& opts, num::RealMatrix* jac,
                           std::vector<double>* residual,
                           std::vector<DeviceOp>* device_ops,
                           DeviceTable* devices) const {
  const std::size_t n = layout_.size();
  if (x.size() != n) {
    throw std::invalid_argument("eval: state vector size mismatch");
  }
  if (jac != nullptr &&
      (jac->rows() != n || jac->cols() != n)) {
    *jac = num::RealMatrix(n, n);
  } else if (jac != nullptr) {
    jac->fill(0.0);
  }
  double* const jdata = jac != nullptr ? jac->data() : nullptr;
  if (residual != nullptr) residual->assign(n, 0.0);
  if (device_ops != nullptr) {
    device_ops->assign(circuit_->mosfets().size(), DeviceOp{});
  }

  auto add_f = [&](int row, double v) {
    if (row >= 0 && residual != nullptr) {
      (*residual)[static_cast<std::size_t>(row)] += v;
    }
  };
  auto add_j = [&](int row, int col, double v) {
    if (row >= 0 && col >= 0 && jdata != nullptr) {
      double* jrow = jdata + static_cast<std::size_t>(row) * n;
      jrow[col] += v;
    }
  };
  auto source_value = [&](const ckt::Waveform& w) {
    const double raw =
        opts.time < 0.0 ? w.dc_value() : w.value(opts.time);
    return raw * opts.source_scale;
  };

  // Shunt gmin from every non-ground node to ground keeps the matrix
  // non-singular for floating gates and is the lever for gmin stepping.
  if (opts.gmin > 0.0) {
    for (std::size_t i = 0; i < layout_.num_node_unknowns(); ++i) {
      add_f(static_cast<int>(i), opts.gmin * x[i]);
      add_j(static_cast<int>(i), static_cast<int>(i), opts.gmin);
    }
  }

  for (const auto& r : circuit_->resistors()) {
    const double g = 1.0 / r.resistance;
    const int ia = layout_.node_index(r.a);
    const int ib = layout_.node_index(r.b);
    const double va = layout_.voltage(x, r.a);
    const double vb = layout_.voltage(x, r.b);
    const double i_ab = g * (va - vb);
    add_f(ia, i_ab);
    add_f(ib, -i_ab);
    add_j(ia, ia, g);
    add_j(ia, ib, -g);
    add_j(ib, ia, -g);
    add_j(ib, ib, g);
  }

  for (std::size_t k = 0; k < circuit_->vsources().size(); ++k) {
    const auto& v = circuit_->vsources()[k];
    const int ip = layout_.node_index(v.pos);
    const int in = layout_.node_index(v.neg);
    const int ibr = static_cast<int>(layout_.branch_index(k));
    const double i_branch = x[static_cast<std::size_t>(ibr)];
    // Branch current leaves the pos node.
    add_f(ip, i_branch);
    add_f(in, -i_branch);
    add_j(ip, ibr, 1.0);
    add_j(in, ibr, -1.0);
    // Branch equation: v(pos) - v(neg) = V.
    const double vp = layout_.voltage(x, v.pos);
    const double vn = layout_.voltage(x, v.neg);
    add_f(ibr, vp - vn - source_value(v.wave));
    add_j(ibr, ip, 1.0);
    add_j(ibr, in, -1.0);
  }

  for (const auto& i : circuit_->isources()) {
    const double value = source_value(i.wave);
    add_f(layout_.node_index(i.a), value);
    add_f(layout_.node_index(i.b), -value);
  }

  std::optional<DeviceTable> local_table;
  if (devices == nullptr) {
    build_device_table(&local_table.emplace());
    devices = &*local_table;
  } else if (devices->size() != circuit_->mosfets().size()) {
    throw std::logic_error(
        "eval: device table was not built for this circuit (see "
        "NonlinearSystem::build_device_table)");
  }
  DeviceTable& tab = *devices;
  const mos::CoreEvalBatch& bat = tab.batch;
  const std::size_t ndev = tab.size();
  evaluate_devices(x, &tab);
  if (device_ops != nullptr) update_junction_caps(&tab, x);
  auto node_voltage = [&](int idx) {
    return idx < 0 ? 0.0 : x[static_cast<std::size_t>(idx)];
  };

  // Stamp pass, in device index order from the flat outputs.  The
  // swap/sign unwinding below mirrors the tail of mos::evaluate_terminal
  // line for line, so each stamp equals the scalar model's bit for bit
  // (pinned per slot and per stamp in tests/test_mos_batch.cpp).
  for (std::size_t k = 0; k < ndev; ++k) {
    const double sign = tab.sign[k];
    double id = bat.id[k];
    double di_dvg = bat.gm[k];
    double di_dvd = bat.gds[k];
    double di_dvs = -(bat.gm[k] + bat.gds[k] + bat.gmb[k]);
    double di_dvb = bat.gmb[k];
    if (tab.swapped[k] != 0) {
      id = -id;
      const double orig_dvd = -di_dvs;
      const double orig_dvs = -di_dvd;
      di_dvd = orig_dvd;
      di_dvs = orig_dvs;
      di_dvg = -di_dvg;
      di_dvb = -di_dvb;
    }
    const double id_ds = sign * id;

    const int id_ = tab.d[k];
    const int ig = tab.g[k];
    const int is = tab.s[k];
    const int ib = tab.b[k];

    add_f(id_, id_ds);
    add_f(is, -id_ds);
    add_j(id_, ig, di_dvg);
    add_j(id_, id_, di_dvd);
    add_j(id_, is, di_dvs);
    add_j(id_, ib, di_dvb);
    add_j(is, ig, -di_dvg);
    add_j(is, id_, -di_dvd);
    add_j(is, is, -di_dvs);
    add_j(is, ib, -di_dvb);

    if (device_ops != nullptr) {
      const double vd = node_voltage(id_);
      const double vg = node_voltage(ig);
      const double vs = node_voltage(is);
      const double vb = node_voltage(ib);
      DeviceOp& op = (*device_ops)[k];
      op.region = bat.region_at(k);
      op.vgs = sign * (vg - vs);
      op.vds = sign * (vd - vs);
      op.vbs = sign * (vb - vs);
      op.id = std::abs(id_ds);
      op.vth = bat.vth[k];
      op.vov = bat.vov[k];
      op.vdsat = bat.vdsat[k];
      op.gm = bat.gm[k];
      op.gds = bat.gds[k];
      op.gmb = bat.gmb[k];
      op.id_ds = id_ds;
      op.di_dvg = di_dvg;
      op.di_dvd = di_dvd;
      op.di_dvs = di_dvs;
      op.di_dvb = di_dvb;
      const MosCaps caps = tab.caps(k);
      op.cgs = caps.cgs;
      op.cgd = caps.cgd;
      op.cgb = caps.cgb;
      op.cdb = caps.cdb;
      op.csb = caps.csb;
    }
  }
}

void NonlinearSystem::jacobian_pattern(bool with_caps,
                                       num::SparsePattern* pattern) const {
  pattern->reset(layout_.size());
  auto add = [&](int row, int col) {
    if (row >= 0 && col >= 0) {
      pattern->add(static_cast<std::size_t>(row),
                   static_cast<std::size_t>(col));
    }
  };
  auto add_pair = [&](ckt::NodeId a, ckt::NodeId b) {
    const int ia = layout_.node_index(a);
    const int ib = layout_.node_index(b);
    add(ia, ia);
    add(ia, ib);
    add(ib, ia);
    add(ib, ib);
  };
  for (std::size_t i = 0; i < layout_.num_node_unknowns(); ++i) {
    add(static_cast<int>(i), static_cast<int>(i));
  }
  for (const auto& r : circuit_->resistors()) add_pair(r.a, r.b);
  for (std::size_t k = 0; k < circuit_->vsources().size(); ++k) {
    const auto& v = circuit_->vsources()[k];
    const int ip = layout_.node_index(v.pos);
    const int in = layout_.node_index(v.neg);
    const int ibr = static_cast<int>(layout_.branch_index(k));
    add(ip, ibr);
    add(in, ibr);
    add(ibr, ip);
    add(ibr, in);
  }
  for (const auto& m : circuit_->mosfets()) {
    const int term[4] = {layout_.node_index(m.d), layout_.node_index(m.g),
                         layout_.node_index(m.s), layout_.node_index(m.b)};
    for (const int col : term) {
      add(term[0], col);  // drain row
      add(term[2], col);  // source row
    }
    if (with_caps) {
      add_pair(m.g, m.s);
      add_pair(m.g, m.d);
      add_pair(m.g, m.b);
      add_pair(m.d, m.b);
      add_pair(m.s, m.b);
    }
  }
  if (with_caps) {
    for (const auto& c : circuit_->capacitors()) add_pair(c.a, c.b);
  }
}

}  // namespace oasys::sim
