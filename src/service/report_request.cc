#include "service/report_request.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "db/textio.h"

namespace shapcq {

namespace {

// Whitespace-splits `text` (the same tokenization the command loop uses).
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

// Strict positive-decimal double: digits, '.', 'e' notation, nothing else —
// no sign, no whitespace, no hex/inf/nan (mirrors ParseSizeStrict's rigor
// for the integer keys).
bool ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return false;
  const char first = text[0];
  if (!std::isdigit(static_cast<unsigned char>(first)) && first != '.') {
    return false;
  }
  // strtod would happily take hex floats ("0x1p-3"); the grammar does not.
  if (text.find('x') != std::string::npos ||
      text.find('X') != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

// The deprecated positional grammar "[top_k] [--threads N]", with the
// original PR 4 error strings byte-for-byte (the golden transcripts and the
// protocol tests pin them).
Result<ReportRequest> ParsePositional(const std::vector<std::string>& tokens,
                                      ReportRequest request) {
  using R = Result<ReportRequest>;
  request.deprecated_form = !tokens.empty();
  bool top_k_seen = false;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] == "--threads") {
      const std::string value = i + 1 < tokens.size() ? tokens[i + 1] : "";
      if (!ParseSizeStrict(value, &request.threads)) {
        return R::Error("bad --threads value '" + value + "'");
      }
      ++i;
    } else if (!top_k_seen && ParseSizeStrict(tokens[i], &request.top_k)) {
      top_k_seen = true;
    } else {
      return R::Error("unexpected argument '" + tokens[i] + "'");
    }
  }
  return R::Ok(std::move(request));
}

}  // namespace

Result<ReportRequest> ParseReportRequest(const std::string& args,
                                         size_t default_threads) {
  using R = Result<ReportRequest>;
  ReportRequest request;
  request.threads = default_threads;

  const std::vector<std::string> tokens = Tokenize(args);
  bool structured = false;
  for (const std::string& token : tokens) {
    if (token.find('=') != std::string::npos) {
      structured = true;
      break;
    }
  }
  if (!structured) return ParsePositional(tokens, std::move(request));

  std::set<std::string> seen;
  for (const std::string& token : tokens) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return R::Error("expected key=value argument, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      return R::Error("duplicate key '" + key + "'");
    }
    if (key == "top_k") {
      if (!ParseSizeStrict(value, &request.top_k)) {
        return R::Error("bad top_k value '" + value + "'");
      }
    } else if (key == "threads") {
      if (!ParseSizeStrict(value, &request.threads)) {
        return R::Error("bad threads value '" + value + "'");
      }
    } else if (key == "approx") {
      const size_t comma = value.find(',');
      const std::string eps_text = value.substr(0, comma);
      double epsilon = 0.0;
      double delta = 0.05;
      bool ok = ParseDoubleStrict(eps_text, &epsilon);
      if (ok && comma != std::string::npos) {
        ok = ParseDoubleStrict(value.substr(comma + 1), &delta);
      }
      if (ok) {
        request.approx.epsilon = epsilon;
        request.approx.delta = delta;
        ok = request.approx.Validate().ok();
      }
      if (!ok) {
        return R::Error("bad approx value '" + value +
                        "' (expected EPS,DELTA with 0<EPS<1 and 0<DELTA<1)");
      }
    } else if (key == "seed") {
      size_t seed = 0;
      if (!ParseSizeStrict(value, &seed)) {
        return R::Error("bad seed value '" + value + "'");
      }
      request.approx.seed = seed;
    } else if (key == "max_samples") {
      if (!ParseSizeStrict(value, &request.approx.max_samples)) {
        return R::Error("bad max_samples value '" + value + "'");
      }
    } else if (key == "force_approx") {
      if (value == "1") {
        request.approx.force = true;
      } else if (value == "0") {
        request.approx.force = false;
      } else {
        return R::Error("bad force_approx value '" + value +
                        "' (expected 0 or 1)");
      }
    } else if (key == "deadline_ms") {
      if (!ParseSizeStrict(value, &request.deadline_ms)) {
        return R::Error("bad deadline_ms value '" + value + "'");
      }
      request.deadline_in_request = true;
    } else if (key == "on_deadline") {
      if (value == "error") {
        request.on_deadline = OnDeadline::kError;
      } else if (value == "approx") {
        request.on_deadline = OnDeadline::kApprox;
      } else {
        return R::Error("bad on_deadline value '" + value +
                        "' (expected error or approx)");
      }
    } else {
      return R::Error("unknown key '" + key +
                      "' (expected top_k, threads, approx, seed, "
                      "max_samples, force_approx, deadline_ms or "
                      "on_deadline)");
    }
  }
  if (!request.approx.enabled() &&
      (seen.count("seed") > 0 || seen.count("max_samples") > 0 ||
       seen.count("force_approx") > 0)) {
    return R::Error(
        "seed, max_samples and force_approx require approx=EPS[,DELTA]");
  }
  return R::Ok(std::move(request));
}

}  // namespace shapcq
