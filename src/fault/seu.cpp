#include "fault/seu.hpp"

#include <random>

#include "hdlsim/gate_sim.hpp"
#include "kernel/vcd.hpp"
#include "obs/session.hpp"

namespace scflow::fault {

namespace {

using hdlsim::GateSim;

struct Ports {
  std::vector<GateSim::PortRef> in, out;
};

Ports resolve_ports(const nl::Netlist& n) {
  Ports p;
  for (const nl::PortBits& pb : n.inputs()) p.in.push_back(&pb);
  for (const nl::PortBits& pb : n.outputs()) p.out.push_back(&pb);
  return p;
}

void drive(GateSim& sim, const Ports& p, const std::vector<std::uint64_t>& in) {
  for (std::size_t i = 0; i < p.in.size(); ++i) sim.set_input(p.in[i], in[i]);
  sim.step();
}

bool hard_diff(const GateSim::PortSample& a, const GateSim::PortSample& b) {
  return (a.known & b.known & (a.value ^ b.value)) != 0;
}

/// Fingerprint of the options that change what the trials compute (the
/// VCD path only adds a waveform dump).
std::uint64_t seu_fingerprint(const SeuOptions& o) {
  obs::Fnv1a h;
  h.update_str("seu-options-v1");
  h.update_u64(o.seed);
  h.update_u64(static_cast<std::uint64_t>(o.warmup_cycles));
  h.update_u64(static_cast<std::uint64_t>(o.functional_cycles));
  h.update_u64(static_cast<std::uint64_t>(o.injections));
  h.update_u64(static_cast<std::uint64_t>(o.recovery_window));
  h.update_u64(o.x_initial_flops ? 1 : 0);
  return h.digest();
}

/// Appends the campaign's "seu" ledger entry and closes its trace slice.
void record(obs::Session& session, const nl::Netlist& n, const SeuOptions& o,
            const SeuResult& r, std::uint64_t start_ns) {
  const std::string prefix = o.metric_prefix.empty() ? "seu." + n.name() : o.metric_prefix;
  obs::LedgerEntry e;
  e.phase = "seu";
  e.design = prefix.rfind("seu.", 0) == 0 ? prefix.substr(4) : prefix;
  e.input_hash = nl::content_hash(n);
  e.options_fingerprint = seu_fingerprint(o);
  e.add_counter("trials", r.trials.size());
  e.add_counter("injected", r.injected);
  e.add_counter("skipped_x", r.skipped_x);
  e.add_counter("diverged", r.diverged);
  e.add_counter("recovered", r.recovered);
  e.add_counter("silent", r.silent);
  e.add_gauge("divergence_pct",
              r.injected == 0 ? 0.0
                              : 100.0 * static_cast<double>(r.diverged) /
                                    static_cast<double>(r.injected));
  e.duration_ns = session.end_slice(prefix, start_ns);
  session.ledger.append(std::move(e));
}

}  // namespace

SeuResult run_seu_campaign(const nl::Netlist& n, const SeuOptions& options,
                           obs::Session* session) {
  const std::uint64_t t0 = session != nullptr ? session->trace.now_ns() : 0;
  SeuResult result;
  result.design = n.name();
  for (const nl::PortBits& p : n.outputs()) result.observe_ports.push_back(p.name);

  const Ports ports = resolve_ports(n);
  GateSim::Options sim_opt;
  sim_opt.x_initial_flops = options.x_initial_flops;

  const std::size_t total_cycles =
      static_cast<std::size_t>(options.warmup_cycles) +
      static_cast<std::size_t>(options.functional_cycles);

  // Deterministic stimulus: one random word per input port per cycle.
  std::mt19937_64 rng(options.seed);
  std::vector<std::vector<std::uint64_t>> program(total_cycles);
  for (auto& cyc : program) {
    cyc.resize(ports.in.size());
    for (auto& v : cyc) v = rng();
  }

  // Golden run, responses captured after every cycle.
  const std::size_t n_ports = ports.out.size();
  std::vector<GateSim::PortSample> good(total_cycles * n_ports);
  std::size_t flop_count = 0;
  {
    GateSim sim(n, sim_opt);
    flop_count = sim.flop_count();
    for (std::size_t c = 0; c < total_cycles; ++c) {
      drive(sim, ports, program[c]);
      for (std::size_t p = 0; p < n_ports; ++p)
        good[c * n_ports + p] = sim.output_sample(ports.out[p]);
    }
  }

  if (flop_count == 0 || options.functional_cycles <= 0 || options.injections <= 0) {
    if (session != nullptr) record(*session, n, options, result, t0);
    return result;
  }

  // Trial schedule drawn from its own stream so changing the trial count
  // never perturbs the stimulus.
  std::mt19937_64 trial_rng(options.seed ^ 0x791a15c8ed01e0ull);
  result.trials.resize(static_cast<std::size_t>(options.injections));
  for (SeuTrial& t : result.trials) {
    t.flop = static_cast<std::size_t>(trial_rng() % flop_count);
    t.cycle = static_cast<std::uint64_t>(options.warmup_cycles) +
              trial_rng() % static_cast<std::uint64_t>(options.functional_cycles);
  }

  std::int64_t first_divergent_trial = -1;
  for (std::size_t ti = 0; ti < result.trials.size(); ++ti) {
    SeuTrial& t = result.trials[ti];
    GateSim sim(n, sim_opt);
    std::uint64_t last_mismatch = 0;
    for (std::size_t c = 0; c < total_cycles; ++c) {
      drive(sim, ports, program[c]);
      if (c == t.cycle) {
        t.injected = sim.flip_flop(t.flop);
        if (!t.injected) break;  // state was X/Z: nothing to upset
        sim.settle();            // let the flip propagate to this cycle's outputs
      }
      if (c < t.cycle) continue;
      for (std::size_t p = 0; p < n_ports; ++p) {
        if (hard_diff(good[c * n_ports + p], sim.output_sample(ports.out[p]))) {
          if (!t.diverged) {
            t.diverged = true;
            t.first_divergent_cycle = c;
            t.first_divergent_port = static_cast<std::uint32_t>(p);
          }
          last_mismatch = c;
        }
      }
    }
    if (t.diverged) {
      t.recovered = last_mismatch + static_cast<std::uint64_t>(options.recovery_window) <
                    total_cycles;
      if (first_divergent_trial < 0) first_divergent_trial = static_cast<std::int64_t>(ti);
    }
  }

  for (const SeuTrial& t : result.trials) {
    if (!t.injected) {
      ++result.skipped_x;
      continue;
    }
    ++result.injected;
    if (t.diverged) {
      ++result.diverged;
      if (t.recovered) ++result.recovered;
    } else {
      ++result.silent;
    }
  }

  // Waveform triage: re-run the first divergent trial with full response
  // capture and dump good vs faulty (plus known masks) per observe port.
  if (first_divergent_trial >= 0 && !options.vcd_path.empty()) {
    const SeuTrial& t = result.trials[static_cast<std::size_t>(first_divergent_trial)];
    result.first_divergent_net = result.observe_ports[t.first_divergent_port];
    minisc::VcdFile vcd(options.vcd_path);
    std::vector<std::size_t> v_good(n_ports), v_bad(n_ports), v_gk(n_ports), v_bk(n_ports);
    for (std::size_t p = 0; p < n_ports; ++p) {
      const int w = static_cast<int>(ports.out[p]->nets.size());
      const std::string& name = result.observe_ports[p];
      v_good[p] = vcd.add_var(name + ".good", w);
      v_bad[p] = vcd.add_var(name + ".faulty", w);
      v_gk[p] = vcd.add_var(name + ".good_known", w);
      v_bk[p] = vcd.add_var(name + ".faulty_known", w);
    }
    GateSim sim(n, sim_opt);
    for (std::size_t c = 0; c < total_cycles; ++c) {
      drive(sim, ports, program[c]);
      if (c == t.cycle) {
        sim.flip_flop(t.flop);
        sim.settle();
      }
      vcd.time(c);
      for (std::size_t p = 0; p < n_ports; ++p) {
        const GateSim::PortSample& g = good[c * n_ports + p];
        const GateSim::PortSample f = sim.output_sample(ports.out[p]);
        vcd.change(v_good[p], g.value);
        vcd.change(v_bad[p], f.value);
        vcd.change(v_gk[p], g.known);
        vcd.change(v_bk[p], f.known);
      }
    }
    if (vcd.good()) result.vcd_written = options.vcd_path;
  }

  if (session != nullptr) record(*session, n, options, result, t0);
  return result;
}

}  // namespace scflow::fault
