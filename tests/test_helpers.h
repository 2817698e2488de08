// Shared builders for feature/core tests: hand-crafted days with beacons,
// browsing, an in-memory WHOIS source, and one-call wrappers that feed an
// in-memory day through api::Detector.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "api/detector.h"
#include "api/event_source.h"
#include "features/whois_source.h"
#include "graph/day_graph.h"
#include "logs/records.h"

namespace eid::test {

/// WHOIS source backed by a plain map (no failure injection).
class MapWhois final : public features::WhoisSource {
 public:
  void add(const std::string& domain, util::Day registered, util::Day expires) {
    records_[domain] = features::WhoisInfo{registered, expires};
  }

  std::optional<features::WhoisInfo> lookup(
      const std::string& domain) const override {
    auto it = records_.find(domain);
    if (it == records_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::map<std::string, features::WhoisInfo> records_;
};

/// Incrementally builds a DayGraph from compact event descriptions.
class DayBuilder {
 public:
  DayBuilder& visit(const std::string& host, const std::string& domain,
                    util::TimePoint ts, util::Ipv4 ip = {0},
                    const std::string& ua = "", bool referer = false) {
    logs::ConnEvent ev;
    ev.ts = ts;
    ev.host = host;
    ev.domain = domain;
    if (ip.value != 0) ev.dest_ip = ip;
    ev.user_agent = ua;
    ev.has_referer = referer;
    ev.has_http_context = true;
    events_.push_back(std::move(ev));
    return *this;
  }

  /// A beacon series host->domain every `period` seconds, n connections.
  DayBuilder& beacon(const std::string& host, const std::string& domain,
                     util::TimePoint start, double period, int n,
                     util::Ipv4 ip = {0}, const std::string& ua = "") {
    for (int i = 0; i < n; ++i) {
      visit(host, domain, start + static_cast<util::TimePoint>(i * period), ip, ua);
    }
    return *this;
  }

  graph::DayGraph build() const {
    graph::DayGraph graph;
    for (const auto& ev : events_) graph.add_event(ev);
    graph.finalize();
    return graph;
  }

  const std::vector<logs::ConnEvent>& events() const { return events_; }

 private:
  std::vector<logs::ConnEvent> events_;
};

/// Profile one in-memory day (histories only).
inline void profile_events(api::Detector& detector,
                        const std::vector<logs::ConnEvent>& events,
                        util::Day day) {
  api::VectorSource source(day, &events);
  detector.ingest(source);
}

/// One in-memory day's pre-threshold analysis, without a history commit.
inline core::DayAnalysis analyze_events(const api::Detector& detector,
                                     const std::vector<logs::ConnEvent>& events,
                                     util::Day day) {
  api::VectorSource source(day, &events);
  return detector.analyze_stream(source, day);
}

/// Full operation day: report plus end-of-day history update.
inline core::DayReport run_events(api::Detector& detector,
                               const std::vector<logs::ConnEvent>& events,
                               util::Day day,
                               const core::SocSeeds& seeds = {}) {
  api::VectorSource source(day, &events);
  return detector.run_day(source, day, seeds);
}

/// Structural JSON validator: balanced brackets outside strings, escape-
/// aware string scanning, exactly one top-level value. Not a full parser
/// (no literal/number grammar), but enough to catch the truncation and
/// quoting bugs a hand-rolled writer can produce.
inline bool json_well_formed(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_value = false;
  std::vector<char> stack;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        if (depth == 0) seen_value = true;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        ++depth;
        break;
      case '}':
      case ']': {
        if (stack.empty()) return false;
        const char open = stack.back();
        stack.pop_back();
        if ((c == '}') != (open == '{')) return false;
        if (--depth == 0) seen_value = true;
        break;
      }
      default:
        break;
    }
  }
  return depth == 0 && !in_string && seen_value;
}

}  // namespace eid::test
