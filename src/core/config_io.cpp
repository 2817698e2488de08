#include "core/config_io.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "util/strings.h"

namespace eid::core {
namespace {

/// Finite doubles only: from_chars also accepts "nan" and "inf", and a
/// NaN threshold would silently disable every comparison against it.
bool parse_double(std::string_view text, double& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && std::isfinite(out);
}

bool parse_count(std::string_view text, std::size_t& out) {
  const auto* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && out >= 1;
}

/// Shortest text that parses back to the same double.
std::string format_double(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ec == std::errc() ? ptr : buf);
}

}  // namespace

ConfigParseResult parse_pipeline_config(const std::string& text) {
  ConfigParseResult result;
  std::istringstream in(text);
  std::string raw_line;
  std::size_t line_no = 0;
  while (std::getline(in, raw_line)) {
    ++line_no;
    std::string_view line = util::trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      result.errors.push_back("line " + std::to_string(line_no) + ": missing '='");
      continue;
    }
    const std::string key(util::trim(line.substr(0, eq)));
    const std::string value(util::trim(line.substr(eq + 1)));
    const auto bad_value = [&] {
      result.errors.push_back("line " + std::to_string(line_no) + ": bad value for " +
                              key);
    };
    double d = 0.0;
    std::size_t n = 0;
    PipelineConfig& cfg = result.config;
    if (key == "popularity_threshold") {
      parse_count(value, cfg.popularity_threshold) || (bad_value(), false);
    } else if (key == "ua_rare_threshold") {
      parse_count(value, cfg.ua_rare_threshold) || (bad_value(), false);
    } else if (key == "bin_width_seconds") {
      if (parse_double(value, d) && d > 0) {
        cfg.periodicity.bin_width_seconds = d;
      } else {
        bad_value();
      }
    } else if (key == "jeffrey_threshold") {
      if (parse_double(value, d) && d >= 0) {
        cfg.periodicity.jeffrey_threshold = d;
      } else {
        bad_value();
      }
    } else if (key == "min_intervals") {
      if (parse_count(value, n)) {
        cfg.periodicity.min_intervals = n;
      } else {
        bad_value();
      }
    } else if (key == "cc_threshold") {
      if (parse_double(value, d)) {
        cfg.cc_threshold = d;
      } else {
        bad_value();
      }
    } else if (key == "sim_threshold") {
      if (parse_double(value, d)) {
        cfg.sim_threshold = d;
      } else {
        bad_value();
      }
    } else if (key == "bp_max_iterations") {
      parse_count(value, cfg.bp_max_iterations) || (bad_value(), false);
    } else {
      result.unknown_keys.push_back(key);
    }
  }
  return result;
}

std::string format_pipeline_config(const PipelineConfig& config) {
  std::ostringstream out;
  out << "# early-infection-detect pipeline configuration\n";
  out << "popularity_threshold = " << config.popularity_threshold << "\n";
  out << "ua_rare_threshold = " << config.ua_rare_threshold << "\n";
  out << "bin_width_seconds = "
      << format_double(config.periodicity.bin_width_seconds) << "\n";
  out << "jeffrey_threshold = "
      << format_double(config.periodicity.jeffrey_threshold) << "\n";
  out << "min_intervals = " << config.periodicity.min_intervals << "\n";
  out << "cc_threshold = " << format_double(config.cc_threshold) << "\n";
  out << "sim_threshold = " << format_double(config.sim_threshold) << "\n";
  out << "bp_max_iterations = " << config.bp_max_iterations << "\n";
  return out.str();
}

}  // namespace eid::core
