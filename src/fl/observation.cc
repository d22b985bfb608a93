#include "src/fl/observation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/stats.h"

namespace floatfl {

PopulationReference ComputePopulationReference(const std::vector<Client>& clients) {
  FLOATFL_CHECK(!clients.empty());
  std::vector<double> gflops;
  std::vector<double> mbps;
  std::vector<double> mem;
  gflops.reserve(clients.size());
  mbps.reserve(clients.size());
  mem.reserve(clients.size());
  for (const Client& client : clients) {
    gflops.push_back(client.compute().BaseGflops());
    mbps.push_back(client.network().NominalMbps());
    mem.push_back(client.compute().MemoryGb());
  }
  PopulationReference ref;
  ref.gflops = std::max(1e-9, Percentile(gflops, 50.0));
  ref.mbps = std::max(1e-9, Percentile(mbps, 50.0));
  ref.memory_gb = std::max(1e-9, Percentile(mem, 50.0));
  return ref;
}

ClientObservation ObserveClient(Client& client, double now_s, const PopulationReference& ref) {
  (void)ref;
  const ResourceAvailability avail = client.interference().At(now_s);
  ClientObservation obs;
  obs.cpu_avail = avail.cpu;
  obs.net_avail = avail.network;
  obs.mem_avail = avail.memory;
  obs.deadline_diff = client.last_deadline_diff;
  return obs;
}

ClientObservation ObserveClientNormalized(Client& client, double now_s,
                                          const PopulationReference& ref) {
  const ResourceAvailability avail = client.interference().At(now_s);
  ClientObservation obs;
  obs.cpu_avail =
      std::clamp(avail.cpu * client.compute().GflopsAt(now_s) / ref.gflops, 0.0, 1.0);
  obs.net_avail =
      std::clamp(avail.network * client.network().BandwidthMbpsAt(now_s) / ref.mbps, 0.0, 1.0);
  obs.mem_avail =
      std::clamp(avail.memory * client.compute().MemoryGb() / ref.memory_gb, 0.0, 1.0);
  obs.deadline_diff = client.last_deadline_diff;
  return obs;
}

}  // namespace floatfl
