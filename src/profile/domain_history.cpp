#include "profile/domain_history.h"

#include <atomic>

namespace eid::profile {

std::uint64_t DomainHistory::next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

RareExtraction extract_rare_destinations(const graph::DayGraph& graph,
                                         const DomainHistory& history,
                                         std::size_t popularity_threshold) {
  RareExtraction out;
  out.total_domains = graph.domain_count();
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    if (!history.is_new(graph.domain_name(d))) continue;
    ++out.new_domains;
    if (graph.domain_hosts(d).size() < popularity_threshold) {
      out.rare_domains.push_back(d);
    }
  }
  return out;
}

void update_history(DomainHistory& history, const graph::DayGraph& graph) {
  std::vector<std::string> domains;
  domains.reserve(graph.domain_count());
  for (graph::DomainId d = 0; d < graph.domain_count(); ++d) {
    domains.push_back(graph.domain_name(d));
  }
  history.update(domains);
}

}  // namespace eid::profile
