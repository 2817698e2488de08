// Synthetic enterprise traffic generator — the substitute for the LANL DNS
// dataset and the AC web-proxy dataset (see DESIGN.md §2).
//
// The world contains:
//  * N workstations with homogeneous browser UA populations (7-9 common UAs
//    per host, a few hosts with one rare niche UA);
//  * popular destinations with Zipf-distributed visit popularity (never
//    rare), visited in referer-carrying browsing sessions;
//  * a daily churn of new benign "tail" destinations (the bulk of the
//    ~tens-of-thousands rare destinations the paper reports);
//  * a daily churn of new legitimate automated services (site refreshers,
//    niche updaters) — periodic, referer-less, sometimes rare-UA: the
//    false-positive surface of the C&C detector (Fig. 5);
//  * grayware (adware / toolbars / gaming / torrent trackers) — the paper's
//    "suspicious" validation category;
//  * internal destinations and chatty internal servers (DNS flavor), which
//    the reduction stage must strip (Fig. 2);
//  * attack campaigns per CampaignSpec.
//
// Proxy flavor extras: multi-timezone collectors, DHCP-assigned source
// addresses with a daily-churning lease table, HTTP context (UA, referer,
// status, URL). Everything is deterministic in the config seed.
#pragma once

#include <string>
#include <vector>

#include "logs/dhcp.h"
#include "logs/records.h"
#include "logs/reduction.h"
#include "sim/campaign.h"
#include "sim/truth.h"
#include "sim/whois_db.h"
#include "util/rng.h"

namespace eid::sim {

enum class Flavor { Dns, Proxy };

struct SimConfig {
  Flavor flavor = Flavor::Proxy;
  std::uint64_t seed = 1;
  util::Day day0 = 0;  ///< first simulated day (set by scenarios)

  std::size_t n_hosts = 1500;
  std::size_t n_servers = 15;      ///< internal servers (their queries are noise)
  std::size_t n_popular = 600;
  std::size_t tail_per_day = 400;  ///< new benign browse-tail domains per day
  std::size_t automated_tail_per_day = 12;  ///< new legit periodic services
  std::size_t grayware_per_day = 4;         ///< newly active grayware domains
  std::size_t n_internal_domains = 40;
  std::size_t server_tail_per_day = 150;  ///< server-only destinations (DNS)

  double sessions_per_host = 5.0;         ///< mean browsing sessions per day
  std::size_t session_requests_min = 3;
  std::size_t session_requests_max = 10;
  double no_referer_fraction = 0.08;  ///< browsing requests with wiped referer
  double dns_extra_record_fraction = 0.35;  ///< AAAA/TXT/... noise (DNS flavor)
  double dhcp_fraction = 0.8;   ///< hosts with dynamic addressing (proxy flavor)
  std::string internal_suffix = "corp.internal";
};

/// One simulated day of raw logs (only the flavor's vector is filled).
struct DayLogs {
  std::vector<logs::DnsRecord> dns;
  std::vector<logs::ProxyRecord> proxy;
};

class EnterpriseSimulator {
 public:
  EnterpriseSimulator(SimConfig config, std::vector<CampaignSpec> campaigns);

  /// Generate the raw logs of one day. Must be called with non-decreasing
  /// days (DHCP leases are appended chronologically). Generating a day
  /// twice gives a different day: each call registers that day's new tail
  /// domains in the shared WHOIS database, and the next call redraws any
  /// name already registered. Build a fresh simulator (or scenario) per
  /// run that must see the same world.
  DayLogs simulate_day(util::Day day);

  /// Convenience: simulate + flavor-appropriate normalization/reduction.
  std::vector<logs::ConnEvent> reduced_day(util::Day day,
                                           logs::DnsReductionStats* dns_stats = nullptr,
                                           logs::ProxyReductionStats* proxy_stats = nullptr);

  const SimConfig& config() const { return config_; }
  const WhoisDb& whois() const { return whois_; }
  const GroundTruth& truth() const { return truth_; }
  const logs::DhcpTable& dhcp() const { return dhcp_; }
  const std::vector<std::string>& host_names() const { return host_names_; }

  logs::DnsReductionConfig dns_reduction_config() const;
  logs::ProxyReductionConfig proxy_reduction_config() const;

 private:
  struct HostProfile {
    std::string name;
    std::vector<std::string> browser_uas;  ///< 5-9 common UAs
    std::string niche_ua;                  ///< "" for most hosts
    double activity = 1.0;                 ///< per-host browsing multiplier
    std::size_t collector = 0;             ///< proxy collection device
    bool dhcp = true;                      ///< dynamically addressed
    std::string static_ip;                 ///< when !dhcp
  };

  struct PopularDomain {
    std::string name;
    util::Ipv4 ip;
    bool has_subdomains = false;
  };

  struct CampaignDomain {
    std::string name;
    util::Ipv4 ip;
    enum class Role { Delivery, CandC, SecondStage } role;
  };

  struct CampaignState {
    CampaignSpec spec;
    std::vector<CampaignDomain> domains;
    std::vector<std::size_t> victims;  ///< host indices
    std::string malware_ua;            ///< "" when spec.malware_empty_ua
  };

  // --- world building ---
  void build_hosts();
  void build_popular();
  void build_campaign(const CampaignSpec& spec);

  // --- per-day emission (append into `sink`) ---
  struct Request {
    util::TimePoint ts;
    std::size_t host;
    std::string domain;      ///< possibly with a subdomain prefix
    util::Ipv4 ip;
    std::string ua;
    std::string referer;     ///< "" = none
    std::string url;
    int status = 200;
  };
  void emit(DayLogs& sink, const Request& req, util::Rng& rng);

  void emit_browsing(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_tail(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_automated_tail(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_grayware(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_internal(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_campaigns(DayLogs& sink, util::Day day, util::Rng& rng);
  void emit_beacons(DayLogs& sink, const CampaignState& campaign,
                    const CampaignDomain& cc, std::size_t victim,
                    util::TimePoint from, util::TimePoint to, util::Rng& rng);

  void assign_dhcp(util::Day day);
  std::string source_ip_for(std::size_t host, util::Day day) const;
  util::Ipv4 random_public_ip(util::Rng& rng) const;
  std::string pick_browser_ua(std::size_t host, util::Rng& rng) const;

  SimConfig config_;
  util::Rng world_rng_;
  WhoisDb whois_;
  GroundTruth truth_;
  logs::DhcpTable dhcp_;

  std::vector<HostProfile> hosts_;
  std::vector<std::string> host_names_;
  std::vector<std::string> server_names_;
  std::vector<PopularDomain> popular_;
  std::vector<std::string> internal_domains_;
  std::vector<std::string> common_uas_;
  std::vector<std::string> service_uas_;  ///< shared by legit periodic services
  std::vector<CampaignState> campaigns_;
  std::vector<std::pair<std::string, int>> collector_offsets_;
  std::vector<std::string> day_ips_;  ///< per-host source IP for current day
  util::Day dhcp_day_ = -1;
};

}  // namespace eid::sim
