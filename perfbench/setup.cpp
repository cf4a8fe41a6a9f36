#include "setup.hpp"

#include "network/registry.hpp"
#include "qos/traffic_classes.hpp"

namespace perfbench {

namespace {

/// Times one set-up call and records it as a span of `layer`.
template <typename Fn>
double timed_ms(Tracer* tracer, const char* layer, const char* name, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (tracer != nullptr) tracer->leaf(layer, name, t0, t1);
  return seconds_between(t0, t1) * 1e3;
}

}  // namespace

std::unique_ptr<Fabric> build_fabric(const FabricConfig& cfg,
                                     SetupTimes& times, Tracer* tracer) {
  using namespace ibarb;
  const auto start = Clock::now();
  ScopedSpan span(tracer, "bench", "setup");
  auto f = std::make_unique<Fabric>();

  const auto spec = network::TopologySpec::parse(cfg.topo);
  times.network_build_ms =
      timed_ms(tracer, "network", "TopologySpec::build",
               [&] { f->graph = spec.build(); });
  times.subnet_route_ms =
      timed_ms(tracer, "subnet", "SubnetManager", [&] {
        f->sm = std::make_unique<subnet::SubnetManager>(f->graph, cfg.routing);
      });

  qos::AdmissionControl::Config ac;
  ac.policy = arbtable::FillPolicy::kBitReversal;
  ac.scheme = qos::Scheme::kNewProposal;
  ac.seed = derive_seed(cfg.seed, 1);
  ac.max_packet_wire_bytes =
      iba::mtu_bytes(cfg.mtu) + iba::kPacketOverheadBytes;
  times.admission_ctor_ms =
      timed_ms(tracer, "qos", "AdmissionControl", [&] {
        f->admission = std::make_unique<qos::AdmissionControl>(
            f->graph, f->sm->routes(), qos::paper_catalogue(), ac);
      });

  sim::SimConfig sc;
  sc.max_payload_bytes = iba::mtu_bytes(cfg.mtu);
  sc.buffer_packets = 4;
  sc.seed = derive_seed(cfg.seed, 2);
  sc.queue_impl = sim::EventQueueImpl::kWheel;
  sc.crossbar_impl = sched::CrossbarImpl::kWrr;
  sc.shards = 1;
  times.sim_ctor_ms = timed_ms(tracer, "sim", "Simulator", [&] {
    f->sim = std::make_unique<sim::Simulator>(f->graph, f->sm->routes(), sc);
  });
  f->admission->attach_telemetry(f->sim->telemetry());

  traffic::WorkloadConfig wc;
  wc.mtu = cfg.mtu;
  wc.seed = derive_seed(cfg.seed, 3);
  wc.besteffort_load = cfg.besteffort_load;
  times.traffic_build_ms =
      timed_ms(tracer, "traffic", "build_paper_workload", [&] {
        f->workload = traffic::build_paper_workload(
            f->graph, f->sm->routes(), *f->admission, *f->sim, wc);
      });
  times.subnet_configure_ms =
      timed_ms(tracer, "subnet", "configure_fabric",
               [&] { f->sm->configure_fabric(*f->sim, *f->admission); });

  times.total_s = seconds_between(start, Clock::now());
  return f;
}

}  // namespace perfbench
