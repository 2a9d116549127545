// End-to-end and per-layer benchmark of the scan paths (see README.md in
// this directory for the workloads, the metrics and how to run it).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans F]
//   perfbench --self-test
//
// The program under test is driven only through public entry points:
// core::BatchScanner::scan for the closed-loop workloads,
// core::ScanService::submit/drain/stats for the open-loop one, and, in the
// traced run, the per-layer functions FrontEnd::process is built from.
// Human-readable progress goes to stderr. Standard output carries one
// `info` JSON line (host metadata, sample counts, correctness figures)
// followed by the result object, which is always the last line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_scanner.hpp"
#include "core/detector.hpp"
#include "core/instrumenter.hpp"
#include "core/jschain.hpp"
#include "core/pipeline.hpp"
#include "core/scan_service.hpp"
#include "core/static_features.hpp"
#include "corpus/builders.hpp"
#include "corpus/generator.hpp"
#include "jsstatic/analyzer.hpp"
#include "pdf/crypto.hpp"
#include "pdf/parser.hpp"
#include "pdf/writer.hpp"
#include "reader/reader_sim.hpp"
#include "support/checksum.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "sys/kernel.hpp"

using namespace pdfshield;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

/// Nearest-rank position of the tail a sample of n supports: the highest
/// percentile, capped at p99, that has at least ten samples beyond it,
/// i.e. min(ceil(0.99 n), n - 10). 0 when n <= 10: no percentile
/// qualifies.
std::size_t tail_rank(std::size_t n) {
  if (n <= 10) return 0;
  const auto p99_rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  return std::min(p99_rank, n - 10);
}

/// The percentile tail_rank() stands for (99 whenever the cap applies).
double tail_percentile(std::size_t n) {
  const std::size_t rank = tail_rank(n);
  if (rank == 0) return 0.0;
  if (rank == n - 10 && rank * 100 < 99 * n) {
    return 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  return 99.0;
}

struct Tail {
  double percentile = 0;  ///< which percentile `value` is (0: none)
  double value = 0;
};

/// Value at tail_rank(); with ten samples or fewer there is no supported
/// tail and the maximum stands in (percentile reported as 0).
Tail tail_of(std::vector<double> values) {
  Tail t;
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t rank = tail_rank(values.size());
  t.percentile = tail_percentile(values.size());
  t.value = rank == 0 ? values.back() : values[rank - 1];
  return t;
}

// ---------------------------------------------------------------------------
// Output

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// JSON object builder for the info line. A figure with a unit is written
/// like a result metric, {"value": v, "unit": u}.
class InfoLine {
 public:
  void add(const std::string& key, double v) { put(key, json_number(v)); }
  void add(const std::string& key, double v, const std::string& unit) {
    put(key, "{\"value\":" + json_number(v) + ",\"unit\":" +
                 json_string(unit) + "}");
  }
  void add(const std::string& key, const std::string& v) {
    put(key, json_string(v));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void put(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += json_string(key) + ":" + raw;
  }
  std::string body_;
};

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

// ---------------------------------------------------------------------------
// Host

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Process-wide resource use so far (all threads).
struct Usage {
  double user_s = 0;  ///< user CPU time
  double sys_s = 0;   ///< kernel CPU time, page-fault handling included
  double minor_faults = 0;

  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s,
            minor_faults - o.minor_faults};
  }
  Usage& operator+=(const Usage& o) {
    user_s += o.user_s;
    sys_s += o.sys_s;
    minor_faults += o.minor_faults;
    return *this;
  }
};

Usage usage_now() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(u.ru_utime), seconds(u.ru_stime),
          static_cast<double>(u.ru_minflt)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* simd_level_name() {
  switch (support::simd::active_level()) {
    case support::simd::Level::kAVX2: return "avx2";
    case support::simd::Level::kSSSE3: return "ssse3";
    case support::simd::Level::kScalar: return "scalar";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Workloads and corpora

/// Expected runtime verdict of a document (detonating workloads only).
enum class Expect { kBenign, kMalicious, kEither };

/// One document of a workload corpus with its ground truth.
struct Item {
  std::string name;
  support::Bytes data;
  Expect expect = Expect::kBenign;
};

struct Corpus {
  std::vector<Item> items;
  std::size_t bytes = 0;
  std::uint32_t digest = 0;  ///< crc32 over names and bytes, in order
};

struct Spec {
  std::string name;
  bool open_loop = false;
  bool detonate = false;
  bool static_prefilter = false;
  bool forced = false;
  /// Documents per scan() request, per worker: the closed loop's requests
  /// and the traced decomposition's.
  std::size_t request_docs_per_job = 0;
};

// Serve offered rates are fixed absolute values (docs/s), never derived
// from a calibration of the build under test: a calibrated rate would
// hand a faster detonator more load and hide its latency gain. The first
// is the reference rate the latency metrics are reported at; the rest form
// the ladder `sustained_rate` is read from.
constexpr double kServeRates[] = {150.0, 200.0, 250.0, 300.0, 350.0};
constexpr double kServeLatencyLimitS = 0.25;  ///< tail limit per rung
constexpr double kLoadgenLagBoundS = 0.1;     ///< a laggier run is invalid

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"gateway", false, false, false, false, 4},
      {"bulk", false, false, false, false, 1},
      {"sandbox", false, true, true, true, 2},
      {"serve", true, true, false, false, 2},
  };
  return all;
}

const Spec* find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void add_samples(Corpus& c, std::vector<corpus::Sample> samples,
                 bool forced) {
  for (corpus::Sample& s : samples) {
    Item item;
    item.name = std::to_string(c.items.size()) + "-" + s.name;
    if (s.malicious && s.expect_detectable &&
        (forced || !s.expect_forced_only)) {
      item.expect = Expect::kMalicious;
    } else if (s.malicious && s.expect_crash && !s.expect_detectable) {
      // crash-plain: labelled undetectable because the family carries no
      // static feature, but the generator's encoding roll still gives some
      // of them F5, and with it a malicious verdict. Either verdict holds.
      item.expect = Expect::kEither;
    }
    item.data = std::move(s.data);
    c.items.push_back(std::move(item));
  }
}

/// Table X ladder document: Flate-compressed prose pages (~1 KiB of
/// stream per page) and one named script.
support::Bytes ladder_document(std::size_t target_bytes, std::uint64_t seed) {
  support::Rng rng(seed);
  corpus::DocumentBuilder builder(rng);
  builder.add_pages(std::max<int>(1, static_cast<int>(target_bytes / 1060)),
                    3000);
  builder.add_named_js("s0", "var v0 = 0;");
  return builder.build();
}

Corpus make_corpus(const Spec& spec, std::uint64_t seed) {
  Corpus c;
  const std::uint64_t base = mix64(seed ^ support::fnv1a64(spec.name));
  corpus::CorpusConfig config;
  config.seed = base;
  corpus::CorpusGenerator gen(config);
  support::Rng shuffle_rng(mix64(base + 1));
  if (spec.name == "gateway") {
    // Table V proportions: 18623 benign (JS at the paper's 994/18623
    // fraction, the generator default) to 7370 malicious.
    add_samples(c, gen.generate_benign(1440), spec.forced);
    add_samples(c, gen.generate_malicious(570), spec.forced);
    // Hosts that carry a PDF attachment; the traced run times them as one
    // FrontEnd::process span.
    std::vector<corpus::Sample> hosts;
    for (std::size_t i = 0; i < 10; ++i) {
      hosts.push_back(gen.generate_embedded_attack_sample(i));
    }
    add_samples(c, std::move(hosts), spec.forced);
  } else if (spec.name == "bulk") {
    // Sizes from the >= 1 MB end of the Table X ladder.
    const std::size_t mib = std::size_t{1} << 20;
    const std::size_t sizes[] = {1 * mib, 1 * mib, 2 * mib, 2 * mib,
                                 3 * mib, 3 * mib, 4 * mib, 4 * mib};
    std::uint64_t doc_seed = base;
    for (std::size_t size : sizes) {
      Item item;
      item.name = std::to_string(c.items.size()) + "-ladder-" +
                  std::to_string(size / mib) + "MiB.pdf";
      item.data = ladder_document(size, doc_seed = mix64(doc_seed + 1));
      c.items.push_back(std::move(item));
    }
  } else if (spec.name == "sandbox") {
    add_samples(c, gen.generate_benign_with_js(600), spec.forced);
    add_samples(c, gen.generate_malicious(600), spec.forced);
    add_samples(c, gen.generate_evasive(180), spec.forced);
  } else {
    // serve: an inbox in Table V proportions, like gateway's, sized to one
    // pass of the reference-rate phase (150 docs/s for 6 s).
    add_samples(c, gen.generate_benign(645), spec.forced);
    add_samples(c, gen.generate_malicious(255), spec.forced);
  }
  shuffle_rng.shuffle(c.items);
  for (const Item& item : c.items) {
    c.bytes += item.data.size();
    c.digest = support::crc32(
        support::BytesView(reinterpret_cast<const std::uint8_t*>(
                               item.name.data()),
                           item.name.size()),
        c.digest);
    c.digest = support::crc32(item.data, c.digest);
  }
  return c;
}

/// Endless pass-wise order over the corpus for the open loop: each pass
/// is a fresh seeded permutation, so every document is sent equally often.
class Order {
 public:
  Order(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed) {}
  std::size_t next() {
    if (pos_ == perm_.size()) {
      perm_.resize(n_);
      for (std::size_t i = 0; i < n_; ++i) perm_[i] = i;
      rng_.shuffle(perm_);
      pos_ = 0;
    }
    return perm_[pos_++];
  }

 private:
  std::size_t n_;
  support::Rng rng_;
  std::vector<std::size_t> perm_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Correctness

/// Running tally of checked documents. A wrong answer (scan error, output
/// content, CRC or digest mismatch, verdict mismatch, corpus that does not
/// reproduce)
/// makes the run incorrect; a rejection is a failed request but no wrong
/// answer.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< wrong answers plus rejections
  std::uint64_t wrong = 0;
  std::uint64_t errors = 0;
  std::uint64_t crc_mismatches = 0;
  std::uint64_t content_mismatches = 0;  ///< reference output lost content
  std::uint64_t verdict_mismatches = 0;
  std::uint64_t rejected = 0;
  // Detection accounting against ground truth (detonating workloads).
  std::uint64_t expected_malicious = 0;
  std::uint64_t detected = 0;
  std::uint64_t expected_benign = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t either = 0;           ///< documents either verdict fits
  std::uint64_t either_detected = 0;
  std::vector<std::string> first_failures;

  void note(const std::string& what) {
    if (first_failures.size() < 5) first_failures.push_back(what);
  }

  void wrong_answer(const std::string& what) {
    ++failed;
    ++wrong;
    note(what);
  }

  void merge(const Check& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    errors += o.errors;
    crc_mismatches += o.crc_mismatches;
    content_mismatches += o.content_mismatches;
    verdict_mismatches += o.verdict_mismatches;
    rejected += o.rejected;
    expected_malicious += o.expected_malicious;
    detected += o.detected;
    expected_benign += o.expected_benign;
    false_positives += o.false_positives;
    either += o.either;
    either_detected += o.either_detected;
    for (const auto& f : o.first_failures) note(f);
  }

  /// `malicious` is checked only when `detonating`.
  void doc(const Item& item, std::uint32_t expected_crc, bool ok,
           std::uint32_t crc, bool detonating, bool malicious) {
    ++attempted;
    bool bad = false;
    if (!ok) {
      ++errors;
      bad = true;
      note(item.name + ": scan error");
    } else if (crc != expected_crc) {
      ++crc_mismatches;
      bad = true;
      note(item.name + ": output crc mismatch");
    }
    if (ok && detonating) {
      switch (item.expect) {
        case Expect::kMalicious:
          ++expected_malicious;
          if (malicious) ++detected;
          break;
        case Expect::kBenign:
          ++expected_benign;
          if (malicious) ++false_positives;
          break;
        case Expect::kEither:
          ++either;
          if (malicious) ++either_detected;
          break;
      }
      if (item.expect != Expect::kEither &&
          malicious != (item.expect == Expect::kMalicious)) {
        ++verdict_mismatches;
        bad = true;
        note(item.name + ": verdict " + (malicious ? "malicious" : "benign"));
      }
    }
    if (bad) {
      ++failed;
      ++wrong;
    }
  }
};

/// Expected per-document output: the output CRC of a sequential
/// FrontEnd::process, which the parallel paths must reproduce byte for
/// byte. The reference output itself is checked against its input by
/// content_mismatch(), which does not rely on the front-end.
struct Reference {
  std::vector<std::uint32_t> crcs;
  std::uint32_t digest = 0;  ///< order-independent: sum of mixed CRCs
};

std::uint32_t digest_add(std::uint32_t digest, std::size_t index,
                         std::uint32_t crc) {
  return digest + static_cast<std::uint32_t>(mix64((index << 32) ^ crc));
}

/// Numbers of the objects a /JS entry points at: the script code the
/// instrumenter rewrites.
void collect_script_objects(const pdf::Object& obj, std::set<int>& out) {
  if (obj.is_array()) {
    for (const pdf::Object& v : obj.as_array()) collect_script_objects(v, out);
    return;
  }
  if (!obj.is_dict() && !obj.is_stream()) return;
  for (const pdf::DictEntry& e : obj.dict_or_stream_dict().entries()) {
    if (e.key == "JS" && e.value.is_ref()) out.insert(e.value.as_ref().num);
    collect_script_objects(e.value, out);
  }
}

bool same_content(const pdf::Object& a, const pdf::Object& b);

/// Dictionary equality in which a direct script (a string under /JS) may
/// differ, as may the key `skip` when given.
bool same_dict(const pdf::Dict& a, const pdf::Dict& b,
               std::string_view skip = {}) {
  auto counted = [&](const pdf::Dict& d) {
    return d.size() - (!skip.empty() && d.contains(skip) ? 1 : 0);
  };
  if (counted(a) != counted(b)) return false;
  for (const pdf::DictEntry& e : a.entries()) {
    if (!skip.empty() && e.key == skip) continue;
    const pdf::Object* other = b.find(e.key);
    if (!other) return false;
    if (e.key == "JS" && e.value.is_string() && other->is_string()) continue;
    if (!same_content(e.value, *other)) return false;
  }
  return true;
}

bool same_content(const pdf::Object& a, const pdf::Object& b) {
  if (a.is_dict() && b.is_dict()) return same_dict(a.as_dict(), b.as_dict());
  if (a.is_stream() && b.is_stream()) {
    return same_dict(a.as_stream().dict, b.as_stream().dict) &&
           a.as_stream().data == b.as_stream().data.view();
  }
  if (a.is_array() && b.is_array()) {
    const pdf::Array& x = a.as_array();
    const pdf::Array& y = b.as_array();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!same_content(x[i], y[i])) return false;
    }
    return true;
  }
  return a == b;
}

pdf::Document load_decoded(support::BytesView bytes) {
  pdf::Document doc = pdf::parse_document(bytes);
  if (pdf::is_encrypted(doc)) pdf::decrypt_document(doc, "");
  doc.decompress_all();
  return doc;
}

bool is_embedded_pdf(const pdf::Object& obj) {
  if (!obj.is_stream()) return false;
  const pdf::Object* type = obj.as_stream().dict.find("Type");
  return type && type->is_name() && type->as_name().value == "EmbeddedFile" &&
         support::as_view(obj.as_stream().data).find("%PDF") !=
             std::string_view::npos;
}

/// Checks that an instrumented `output` still carries everything of
/// `input` but its scripts, without trusting the front-end under test:
/// both are parsed and decoded, and must hold the same objects and the
/// same trailer /Root. Every object is equal after decoding, except that
/// script code (the objects /JS points at, and direct /JS strings) may
/// change but keep its kind, and an embedded PDF is checked the same way,
/// recursively. So dropped, truncated or re-numbered content fails, while
/// any change of encoding (ROADMAP item 5) passes. Returns what differs,
/// or "" when nothing does.
std::string content_mismatch(support::BytesView input,
                             support::BytesView output, int depth = 0) {
  try {
    const pdf::Document in = load_decoded(input);
    const pdf::Document out = load_decoded(output);
    if (in.object_count() != out.object_count()) {
      return "object count " + std::to_string(in.object_count()) + " -> " +
             std::to_string(out.object_count());
    }
    const pdf::Object* root_in = in.trailer().find("Root");
    const pdf::Object* root_out = out.trailer().find("Root");
    if (!root_in != !root_out || (root_in && !(*root_in == *root_out))) {
      return "trailer /Root differs";
    }
    std::set<int> scripts;
    for (const auto& [num, obj] : in.objects()) {
      collect_script_objects(obj, scripts);
    }
    for (const auto& [num, a] : in.objects()) {
      const pdf::Object* b = out.object(pdf::Ref{num, 0});
      const std::string where = "object " + std::to_string(num);
      if (!b) return where + " missing";
      if (scripts.count(num)) {
        if (a.is_stream() != b->is_stream() ||
            a.is_string() != b->is_string()) {
          return where + ": script changed kind";
        }
      } else if (is_embedded_pdf(a) && b->is_stream() &&
                 !(a.as_stream().data == b->as_stream().data.view())) {
        if (depth >= 2) return where + ": embedded PDF changed";
        if (!same_dict(a.as_stream().dict, b->as_stream().dict, "Length")) {
          return where + ": embedded file dictionary differs";
        }
        const std::string inner = content_mismatch(
            a.as_stream().data, b->as_stream().data, depth + 1);
        if (!inner.empty()) return where + ": embedded PDF: " + inner;
      } else if (!same_content(a, *b)) {
        return where + " differs";
      }
    }
    return "";
  } catch (const std::exception& e) {
    return std::string("unreadable: ") + e.what();
  }
}

Reference make_reference(const Corpus& c, const std::string& detector_id,
                         const core::FrontEndOptions& options, Check& check) {
  Reference ref;
  const core::FrontEnd frontend(detector_id, options);
  for (std::size_t i = 0; i < c.items.size(); ++i) {
    const core::FrontEndResult r = frontend.process(c.items[i].data);
    const std::uint32_t crc = r.ok ? support::crc32(r.output) : 0;
    ref.crcs.push_back(crc);
    ref.digest = digest_add(ref.digest, i, crc);
    if (!r.ok) continue;  // every scan path then fails the document
    const std::string why = content_mismatch(c.items[i].data, r.output);
    if (!why.empty()) {
      ++check.content_mismatches;
      check.wrong_answer(c.items[i].name + ": output content: " + why);
    }
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Closed loop over BatchScanner

core::BatchOptions batch_options(const Spec& spec, std::size_t jobs) {
  core::BatchOptions options;
  options.jobs = jobs;
  options.detonate = spec.detonate;
  options.static_prefilter = spec.static_prefilter;
  options.frontend.forced_execution = spec.forced;
  return options;
}

/// What the scanner's workers run per document: the scanner turns the
/// jsstatic pass on when it screens, which never changes output bytes.
core::FrontEndOptions scanner_frontend(const core::BatchOptions& options) {
  core::FrontEndOptions fe = options.frontend;
  if (options.static_prefilter) fe.analyze_js = true;
  return fe;
}

/// The corpus cut into fixed requests: a seeded permutation split into
/// requests of `request_docs` documents.
std::vector<std::vector<std::size_t>> make_requests(std::size_t n,
                                                    std::size_t request_docs,
                                                    std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  support::Rng rng(seed);
  rng.shuffle(perm);
  std::vector<std::vector<std::size_t>> requests;
  for (std::size_t i = 0; i < n; i += request_docs) {
    requests.emplace_back(perm.begin() + static_cast<std::ptrdiff_t>(i),
                          perm.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(n, i + request_docs)));
  }
  return requests;
}

struct ClosedResult {
  std::size_t passes = 0;
  double busy_s = 0;  ///< wall time inside scan() calls
  double phase_s = 0;  ///< BatchReport::cpu_timings summed
  std::vector<double> latencies_s;  ///< one per scan() call
  /// One pass over the corpus, each request counted at the median of its
  /// measurements: robust to bursts of interference from other tenants.
  double pass_cpu_s = 0;   ///< process CPU time, user plus kernel
  double pass_user_s = 0;  ///< process user CPU time
  Usage usage;  ///< all scan() calls together
  double pass_wall_s = 0;  ///< wall time
  std::uint64_t pass_output_bytes = 0;  ///< instrumented output of a pass
};

/// Issues every request once per pass, in a fresh seeded order each pass,
/// until `seconds` of scanning have been measured; stops at the end of a
/// pass, so every request is measured at least once.
ClosedResult run_closed(core::BatchScanner& scanner, const Corpus& c,
                        const Reference& ref,
                        const std::vector<std::vector<std::size_t>>& requests,
                        std::uint64_t seed, double seconds, bool detonating,
                        Check& check) {
  ClosedResult out;
  std::vector<std::vector<double>> cpu(requests.size());
  std::vector<std::vector<double>> user(requests.size());
  std::vector<std::vector<double>> wall(requests.size());
  std::vector<std::size_t> order(requests.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  support::Rng rng(seed);
  std::vector<core::BatchItem> items;
  do {
    rng.shuffle(order);
    for (std::size_t r : order) {
      items.clear();
      for (std::size_t i : requests[r]) {
        items.push_back({c.items[i].name, c.items[i].data});
      }
      const Usage u0 = usage_now();
      const auto t0 = Clock::now();
      const core::BatchReport report = scanner.scan(items);
      const double w = seconds_between(t0, Clock::now());
      const Usage used = usage_now() - u0;
      cpu[r].push_back(used.user_s + used.sys_s);
      user[r].push_back(used.user_s);
      out.usage += used;
      wall[r].push_back(w);
      out.busy_s += w;
      out.latencies_s.push_back(w);
      out.phase_s += report.cpu_timings.total_s();
      for (std::size_t k = 0; k < requests[r].size(); ++k) {
        const core::BatchDocResult& d = report.docs[k];
        const std::size_t i = requests[r][k];
        check.doc(c.items[i], ref.crcs[i], d.ok, d.output_crc32, detonating,
                  d.malicious);
        if (out.passes == 0) out.pass_output_bytes += d.output_bytes;
      }
    }
    ++out.passes;
  } while (out.busy_s < seconds);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    out.pass_cpu_s += median(cpu[r]);
    out.pass_user_s += median(user[r]);
    out.pass_wall_s += median(wall[r]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Open loop over ScanService

struct OpenPhase {
  double seconds = 0;
  Usage usage;  ///< from the first send until drained
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t input_bytes = 0;   ///< of completed requests
  std::uint64_t output_bytes = 0;
  std::uint64_t backlog_at_end = 0;  ///< submitted, unanswered at the end
  /// From the scheduled send time to the callback; rejected requests
  /// count as +inf (they miss any limit).
  std::vector<double> latencies_s;
  std::vector<double> lag_s;  ///< actual minus scheduled send time
  Tail latency_tail;
};

/// Poisson arrivals at a fixed `rate` for `seconds`, then drain.
OpenPhase run_open(core::ScanService& service, const Corpus& c,
                   const Reference& ref, Order& order, double rate,
                   double seconds, std::uint64_t seed, Check& check) {
  OpenPhase phase;
  phase.seconds = seconds;
  std::mutex mutex;  // guards phase counters, latencies and `check`
  std::atomic<std::uint64_t> answered{0};
  support::Rng rng(seed);

  const Usage u0 = usage_now();
  const auto start = Clock::now();
  const auto deadline = start + to_duration(seconds);
  auto due = start;
  while (due < deadline) {
    std::this_thread::sleep_until(due);
    const std::size_t i = order.next();
    const Item& item = c.items[i];
    const auto sent = Clock::now();
    phase.lag_s.push_back(seconds_between(due, sent));
    ++phase.submitted;
    service.submit(
        item.name, support::BytesView(item.data.data(), item.data.size()),
        nullptr,
        [&, i, due](const core::ScanResponse& response) {
          const double latency = seconds_between(due, Clock::now());
          std::lock_guard<std::mutex> lock(mutex);
          if (!response.accepted) {
            ++phase.rejected;
            ++check.attempted;
            ++check.rejected;
            ++check.failed;
            check.note(c.items[i].name + ": rejected " +
                       response.reject_reason);
            phase.latencies_s.push_back(
                std::numeric_limits<double>::infinity());
          } else {
            ++phase.completed;
            phase.input_bytes += c.items[i].data.size();
            phase.output_bytes += response.doc.output_bytes;
            phase.latencies_s.push_back(latency);
            check.doc(c.items[i], ref.crcs[i], response.doc.ok,
                      response.doc.output_crc32, /*detonating=*/true,
                      response.doc.malicious);
          }
          answered.fetch_add(1, std::memory_order_relaxed);
        });
    // Exponential gaps make a Poisson process; 1 - u keeps log() finite.
    due += to_duration(-std::log(1.0 - rng.uniform01()) / rate);
  }
  phase.backlog_at_end =
      phase.submitted - answered.load(std::memory_order_relaxed);
  service.drain();
  phase.usage = usage_now() - u0;
  std::lock_guard<std::mutex> lock(mutex);
  phase.latency_tail = tail_of(phase.latencies_s);
  return phase;
}

// ---------------------------------------------------------------------------
// Traced decomposition of FrontEnd::process + detonation

/// One timed interval around a call into a layer. Spans of one document
/// share `doc`; `parent` is the id of the enclosing span (0: root).
struct Span {
  std::uint32_t doc = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::int64_t start_ns = 0;  ///< wall clock, from the run's epoch
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  ///< thread CPU time between start and end
};

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Per-worker in-memory span log; written out once the run ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, bool enabled)
      : epoch_(epoch), enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanLog& log, std::uint32_t doc, std::uint32_t parent,
          const char* name)
        : log_(log), index_(log.spans_.size()) {
      if (log.enabled_) {
        log.spans_.push_back(
            {doc, ++log.next_id_, parent, name, log.now_ns(), 0, 0});
        cpu_start_ns_ = thread_cpu_ns();
      }
    }
    ~Scope() {
      if (!log_.enabled_) return;
      Span& span = log_.spans_[index_];
      span.cpu_ns = thread_cpu_ns() - cpu_start_ns_;
      span.end_ns = log_.now_ns();
    }
    std::uint32_t id() const {
      return log_.enabled_ ? log_.spans_[index_].id : 0;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
    std::int64_t cpu_start_ns_ = 0;
  };

  /// Drops the spans recorded from position `from` on.
  void truncate(std::size_t from) { spans_.resize(from); }
  std::size_t size() const { return spans_.size(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  Clock::time_point epoch_;
  bool enabled_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 0;
};

/// Work counts of one document, gathered at the same call boundaries.
struct LayerCounts {
  double decoded_bytes = 0;
  double decoded_useful_bytes = 0;
  double output_bytes = 0;
  double scripts_instrumented = 0;
  double js_analyzed_docs = 0;
  double js_proven_clean = 0;
  double js_truncated = 0;
  double detonations = 0;
  double scripts_executed = 0;
  double js_reported_bytes = 0;
  double paths_explored = 0;
  double paths_dropped = 0;
  double trace_events = 0;
  double embedded_docs = 0;

  void add(const LayerCounts& o) {
    decoded_bytes += o.decoded_bytes;
    decoded_useful_bytes += o.decoded_useful_bytes;
    output_bytes += o.output_bytes;
    scripts_instrumented += o.scripts_instrumented;
    js_analyzed_docs += o.js_analyzed_docs;
    js_proven_clean += o.js_proven_clean;
    js_truncated += o.js_truncated;
    detonations += o.detonations;
    scripts_executed += o.scripts_executed;
    js_reported_bytes += o.js_reported_bytes;
    paths_explored += o.paths_explored;
    paths_dropped += o.paths_dropped;
    trace_events += o.trace_events;
    embedded_docs += o.embedded_docs;
  }
};

bool has_embedded_pdf(const pdf::Document& doc) {
  // The condition FrontEnd uses to recurse into an attachment.
  for (const auto& [num, obj] : doc.objects()) {
    if (!obj.is_stream()) continue;
    const pdf::Stream& stream = obj.as_stream();
    const pdf::Object* type = stream.dict.find("Type");
    if (type && type->is_name() &&
        type->as_name().value == "EmbeddedFile" &&
        support::as_view(stream.data).find("%PDF") != std::string_view::npos) {
      return true;
    }
  }
  return false;
}

struct Decomposer {
  const Spec& spec;
  const std::string& detector_id;
  core::FrontEndOptions fe_options;

  /// The front-end of one document, span by span. Returns false when the
  /// document embeds PDFs: FrontEnd recurses into those with a shared Rng,
  /// so they are timed as one FrontEnd::process span instead.
  bool front_end(SpanLog& log, std::uint32_t doc, std::uint32_t root,
                 support::BytesView input,
                 const support::ArenaHandle& arena,
                 core::FrontEndResult& r, LayerCounts& counts) const {
    core::EncodingLevels levels;
    {
      SpanLog::Scope s(log, doc, root, "pdf.parse");
      pdf::ParseOptions parse_options;
      parse_options.stats = &r.parse_stats;
      parse_options.health = &r.parse_health;
      parse_options.arena = arena;
      r.document = pdf::parse_document(input, parse_options);
      if (pdf::is_encrypted(r.document)) {
        r.password_removed = pdf::decrypt_document(r.document, "");
        if (!r.password_removed) {
          r.error = "encrypted document: user password required";
          return true;
        }
      }
      levels = core::snapshot_encoding_levels(r.document);
    }
    std::set<int> filtered;
    for (const auto& [num, obj] : r.document.objects()) {
      if (obj.is_stream() && obj.as_stream().dict.find("Filter")) {
        filtered.insert(num);
      }
    }
    {
      SpanLog::Scope s(log, doc, root, "pdf.decode");
      r.streams_decompressed = r.document.decompress_all();
    }
    if (has_embedded_pdf(r.document)) return false;
    // Decoded size of every stream decompress_all() decoded, and whether
    // a consumer reads it: object streams and attachments here, script
    // streams once the chains are known (ROADMAP item 5's definition).
    // The writer re-emitting everything else is not counted as use.
    std::map<int, double> decoded;
    for (int num : filtered) {
      const pdf::Stream& stream =
          r.document.object(pdf::Ref{num, 0})->as_stream();
      if (stream.dict.find("Filter")) continue;  // undecodable, left raw
      const double n = static_cast<double>(stream.data.size());
      counts.decoded_bytes += n;
      const pdf::Object* type = stream.dict.find("Type");
      if (type && type->is_name() && (type->as_name().value == "ObjStm" ||
                                      type->as_name().value == "EmbeddedFile")) {
        counts.decoded_useful_bytes += n;
      } else {
        decoded[num] = n;
      }
    }

    core::JsChainAnalysis chains;
    {
      SpanLog::Scope s(log, doc, root, "core.features");
      chains = core::analyze_js_chains(r.document);
      r.features = core::extract_static_features(r.document, chains, &levels);
      r.features.parse_repaired = r.parse_health.repaired;
      r.features.shadowed_objects = static_cast<int>(
          r.parse_health.count(pdf::ParseAnomaly::kShadowedObject));
      r.has_javascript = chains.has_javascript();
      if (fe_options.analyze_js) {
        SpanLog::Scope js(log, doc, s.id(), "jsstatic.analyze");
        std::vector<std::string> sources;
        sources.reserve(chains.sites.size());
        for (const core::JsSite& site : chains.sites) {
          sources.push_back(site.source);
        }
        r.js_report =
            jsstatic::analyze_scripts(sources, fe_options.jsstatic_caps);
        r.js_analyzed = true;
      }
    }
    {
      SpanLog::Scope s(log, doc, root, "core.instrument");
      support::Rng rng(core::FrontEnd::document_seed(detector_id, input));
      core::Instrumenter instrumenter(rng, detector_id,
                                      fe_options.instrumenter);
      r.record = instrumenter.instrument(r.document);
    }
    {
      SpanLog::Scope s(log, doc, root, "pdf.write");
      r.output = pdf::write_document(r.document);
    }
    r.ok = true;
    for (const core::JsSite& site : chains.sites) {
      const auto it = decoded.find(site.code_object);
      if (site.code_in_stream && it != decoded.end()) {
        counts.decoded_useful_bytes += it->second;
        decoded.erase(it);
      }
    }
    return true;
  }

  /// One document through the same steps run_document takes. Fills the
  /// output CRC and verdict the correctness check compares.
  void run(SpanLog& log, std::uint32_t doc, const Item& item,
           const support::ArenaHandle& arena, bool& ok, std::uint32_t& crc,
           bool& malicious, LayerCounts& counts) const {
    SpanLog::Scope root(log, doc, 0, "doc");
    core::FrontEndResult r;
    const std::size_t mark = log.size();
    const LayerCounts before = counts;
    const support::BytesView input(item.data.data(), item.data.size());
    if (!front_end(log, doc, root.id(), input, arena, r, counts)) {
      log.truncate(mark);
      counts = before;
      ++counts.embedded_docs;
      SpanLog::Scope s(log, doc, root.id(), "core.frontend");
      r = core::FrontEnd(detector_id, fe_options).process(input);
    }
    ok = r.ok;
    if (!ok) return;
    crc = support::crc32(r.output);
    counts.output_bytes += static_cast<double>(r.output.size());
    counts.scripts_instrumented +=
        static_cast<double>(r.record.entries.size());
    if (r.js_analyzed && r.has_javascript) {
      ++counts.js_analyzed_docs;
      if (r.js_report.proven_clean()) ++counts.js_proven_clean;
      if (r.js_report.truncated) ++counts.js_truncated;
    }
    const bool proven_clean = spec.static_prefilter && r.js_analyzed &&
                              r.js_report.proven_clean() &&
                              r.embedded.empty();
    malicious = false;
    if (!spec.detonate || proven_clean) return;

    SpanLog::Scope s(log, doc, root.id(), "reader.detonate");
    sys::Kernel kernel(/*trace_ring_capacity=*/0);
    core::RuntimeDetector detector(kernel, core::DetectorConfig{},
                                   detector_id);
    detector.register_document(r.record.key, item.name, r.features);
    for (const auto& emb : r.embedded) {
      detector.register_document(emb.record.key, emb.name, emb.features);
    }
    reader::ReaderConfig reader_config;
    reader_config.forced_execution = spec.forced;
    reader::ReaderSim reader(kernel, reader_config);
    detector.attach(reader);
    const reader::OpenResult open = reader.open_document(r.output, item.name);
    malicious = detector.verdict(r.record.key).malicious;
    ++counts.detonations;
    counts.scripts_executed += static_cast<double>(open.scripts_executed);
    counts.js_reported_bytes += static_cast<double>(open.js_reported_bytes);
    counts.paths_explored += static_cast<double>(open.paths_explored);
    counts.paths_dropped += static_cast<double>(open.paths_dropped);
    counts.trace_events +=
        static_cast<double>(kernel.trace().counters().total);
  }
};

struct TracedResult {
  double busy_s = 0;  ///< summed request walls, as run_closed measures
  double cpu_s = 0;   ///< process user CPU time of the requests
  std::uint64_t docs = 0;
  std::vector<SpanLog> logs;
  LayerCounts first_pass;  ///< counts over exactly one corpus pass
  double arena_high_water = 0;
};

/// Runs the decomposition on `jobs` threads over the closed loop's
/// requests, pass after pass like run_closed: a request ends when its last
/// document does. Runs for `seconds` of requests and at least one pass,
/// and checks every document like the untraced path. With `record_spans`
/// off the same work runs unobserved, which is the base the tracing
/// overhead is measured against.
TracedResult run_traced(const Spec& spec, const std::string& detector_id,
                        const core::FrontEndOptions& fe_options,
                        const Corpus& c, const Reference& ref,
                        std::size_t jobs,
                        const std::vector<std::vector<std::size_t>>& requests,
                        std::uint64_t seed, double seconds, bool record_spans,
                        Check& check) {
  TracedResult out;
  const Decomposer decomposer{spec, detector_id, fe_options};
  const auto epoch = Clock::now();
  for (std::size_t w = 0; w < jobs; ++w) {
    out.logs.emplace_back(epoch, record_spans);
  }

  // The coordinator sets the request and opens the start barrier; workers
  // claim its documents through `next` and meet again at the end barrier.
  // The barrier orders the coordinator's writes before the workers' reads.
  const std::vector<std::size_t>* request = nullptr;
  std::uint64_t first_doc_id = 0;  ///< span doc id of the request's first
  bool first_pass = true;
  bool stop = false;
  std::atomic<std::size_t> next{0};
  std::barrier sync(static_cast<std::ptrdiff_t>(jobs + 1));

  std::vector<Check> checks(jobs);
  std::vector<LayerCounts> counts(jobs);
  std::vector<double> high_water(jobs, 0.0);
  std::vector<std::uint32_t> digests(jobs, 0);

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < jobs; ++w) {
    workers.emplace_back([&, w] {
      auto arena = std::make_shared<support::Arena>();
      SpanLog& log = out.logs[w];
      for (;;) {
        sync.arrive_and_wait();
        if (stop) return;
        for (std::size_t k; (k = next.fetch_add(1)) < request->size();) {
          const std::size_t i = (*request)[k];
          bool ok = false;
          bool malicious = false;
          std::uint32_t crc = 0;
          LayerCounts doc_counts;
          try {
            decomposer.run(log, static_cast<std::uint32_t>(first_doc_id + k),
                           c.items[i], arena, ok, crc, malicious, doc_counts);
          } catch (const std::exception&) {
            ok = false;
          }
          high_water[w] = std::max(high_water[w],
                                   static_cast<double>(arena->high_water()));
          if (arena.use_count() == 1) arena->reset();
          checks[w].doc(c.items[i], ref.crcs[i], ok, crc, spec.detonate,
                        malicious);
          if (first_pass) {
            counts[w].add(doc_counts);
            digests[w] = digest_add(digests[w], i, crc);
          }
        }
        sync.arrive_and_wait();
      }
    });
  }

  std::vector<std::size_t> order(requests.size());
  for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
  support::Rng rng(seed);
  do {
    rng.shuffle(order);
    for (std::size_t r : order) {
      request = &requests[r];
      first_doc_id = out.docs;
      next.store(0);
      const Usage u0 = usage_now();
      const auto t0 = Clock::now();
      sync.arrive_and_wait();  // start
      sync.arrive_and_wait();  // every document of the request is done
      out.busy_s += seconds_between(t0, Clock::now());
      out.cpu_s += (usage_now() - u0).user_s;
      out.docs += request->size();
    }
    first_pass = false;
  } while (out.busy_s < seconds);
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : workers) t.join();

  std::uint32_t pass_digest = 0;
  for (std::size_t w = 0; w < jobs; ++w) {
    check.merge(checks[w]);
    pass_digest += digests[w];
    out.first_pass.add(counts[w]);
    out.arena_high_water = std::max(out.arena_high_water, high_water[w]);
  }
  if (pass_digest != ref.digest) {
    check.wrong_answer(
        "decomposed pass output digest differs from the reference");
  }
  return out;
}

struct LayerTimes {
  std::map<std::string, double> self_s;  ///< summed self CPU time per name
  std::vector<double> detonate_s;        ///< CPU time of each detonation
};

/// Self time of a span: its duration minus the part its children cover.
/// Children of one span run one after another on the span's own thread,
/// so their durations add up without overlap. Durations are thread CPU
/// time, which time the host steals from the guest does not inflate.
LayerTimes layer_times(const std::vector<SpanLog>& logs) {
  LayerTimes t;
  for (const SpanLog& log : logs) {
    std::map<std::uint32_t, double> child_s;
    for (const Span& s : log.spans()) {
      if (s.parent) child_s[s.parent] += static_cast<double>(s.cpu_ns) * 1e-9;
    }
    for (const Span& s : log.spans()) {
      const double dur = static_cast<double>(s.cpu_ns) * 1e-9;
      const auto it = child_s.find(s.id);
      t.self_s[s.name] += dur - (it == child_s.end() ? 0.0 : it->second);
      if (std::string_view(s.name) == "reader.detonate") {
        t.detonate_s.push_back(dur);
      }
    }
  }
  return t;
}

bool write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream out(path);
  out << "doc,id,parent,name,start_ns,end_ns,cpu_ns\n";
  for (std::size_t w = 0; w < logs.size(); ++w) {
    for (const Span& s : logs[w].spans()) {
      // Span ids are per worker; prefix the worker to keep them unique.
      out << s.doc << ',' << w << '.' << s.id << ','
          << (s.parent ? std::to_string(w) + "." + std::to_string(s.parent)
                       : std::string("0"))
          << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
          << s.cpu_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

/// Warm-up for the service path: one untimed, checked closed burst over
/// the whole corpus, with admission wide enough to take all of it.
void warm_up_service(const core::ServeOptions& options, const Corpus& c,
                     const Reference& ref, Check& check) {
  core::ServeOptions wide = options;
  wide.max_inflight_docs = c.items.size() + options.jobs;
  wide.max_inflight_bytes = std::numeric_limits<std::size_t>::max();
  wide.degrade_depth = c.items.size() + options.jobs;
  core::ScanService service(wide);
  std::mutex mutex;  // guards `check`
  for (std::size_t i = 0; i < c.items.size(); ++i) {
    const Item& item = c.items[i];
    service.submit(item.name,
                   support::BytesView(item.data.data(), item.data.size()),
                   nullptr, [&, i](const core::ScanResponse& response) {
                     std::lock_guard<std::mutex> lock(mutex);
                     check.doc(c.items[i], ref.crcs[i],
                               response.accepted && response.doc.ok,
                               response.doc.output_crc32, true,
                               response.doc.malicious);
                   });
  }
  service.drain();
}

/// The highest offered rate whose tail latency meets the limit with no
/// rejection and no backlog left at the end of its rung. Starts from the
/// reference phase and climbs the fixed ladder until a rung misses.
double sustained_rate(core::ScanService& service, const Corpus& c,
                      const Reference& ref, Order& order,
                      const OpenPhase& reference, double rung_s,
                      std::size_t jobs, std::uint64_t seed, Check& check,
                      InfoLine& info) {
  auto meets = [jobs](const OpenPhase& p) {
    return p.rejected == 0 && p.latency_tail.value <= kServeLatencyLimitS &&
           p.backlog_at_end <= 2 * static_cast<std::uint64_t>(jobs);
  };
  if (!meets(reference)) return 0.0;
  double sustained = kServeRates[0];
  for (std::size_t k = 1; k < std::size(kServeRates); ++k) {
    // Rungs probe for the limit: a rejection there is the measured
    // outcome (admission control answering "overloaded" is correct
    // behaviour), so only wrong answers count against the run.
    Check probe;
    const OpenPhase rung = run_open(service, c, ref, order, kServeRates[k],
                                    rung_s, seed ^ (3 + k), probe);
    probe.failed -= probe.rejected;
    probe.attempted -= probe.rejected;
    probe.rejected = 0;
    std::erase_if(probe.first_failures, [](const std::string& f) {
      return f.find(": rejected ") != std::string::npos;
    });
    check.merge(probe);
    const std::string key = "serve_rung_" + json_number(kServeRates[k]);
    info.add(key + "_tail_s", rung.latency_tail.value, "s");
    info.add(key + "_rejected", static_cast<double>(rung.rejected));
    if (!meets(rung)) break;
    sustained = kServeRates[k];
  }
  return sustained;
}

// ---------------------------------------------------------------------------
// One run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  bool self_test = false;
};

// Set-up is timed several times: before the measured window and again
// after it, so that a stretch of interference from other tenants seldom
// covers every repeat. The first set-up of a process also pays for growing
// the heap (gateway: about three times a later one).
constexpr int kSetupRepeatsBefore = 4;
constexpr int kSetupRepeatsAfter = 4;

/// Corpus generation plus scanner/service construction.
struct Setup {
  Corpus corpus;  ///< from the first repeat
  std::vector<double> times_s;  ///< user CPU seconds of each repeat
  bool deterministic = true;

  /// Times one more set-up. Every repeat must regenerate the identical
  /// corpus.
  void repeat(const Spec& spec, std::uint64_t seed, std::size_t jobs) {
    const Usage u0 = usage_now();
    Corpus c = make_corpus(spec, seed);
    if (spec.open_loop) {
      core::ServeOptions options;
      options.jobs = jobs;
      core::ScanService service(options);
    } else {
      core::BatchScanner scanner(batch_options(spec, jobs));
    }
    times_s.push_back((usage_now() - u0).user_s);
    if (times_s.size() == 1) {
      corpus = std::move(c);
    } else if (c.digest != corpus.digest) {
      deterministic = false;
    }
  }
};

int run(const Args& args) {
  const Spec* spec_ptr = find_spec(args.workload);
  if (!spec_ptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Spec& spec = *spec_ptr;
  const std::size_t cpus = host_cpus();
  // Worker threads plus the load generator never exceed the cores.
  const std::size_t jobs = spec.open_loop ? std::max<std::size_t>(1, cpus - 1)
                                          : cpus;
  InfoLine info;
  info.add("workload", spec.name);
  info.add("seed", static_cast<double>(args.seed));
  info.add("trace", args.trace ? 1.0 : 0.0);
  info.add("nproc", static_cast<double>(cpus));
  info.add("jobs", static_cast<double>(jobs));
  info.add("compiler", PERFBENCH_COMPILER);
  info.add("build_type", PERFBENCH_BUILD_TYPE);
  info.add("simd", simd_level_name());

  Setup setup;
  for (int k = 0; k < kSetupRepeatsBefore; ++k) {
    setup.repeat(spec, args.seed, jobs);
  }
  const Corpus& c = setup.corpus;
  info.add("corpus_docs", static_cast<double>(c.items.size()));
  info.add("corpus_bytes", static_cast<double>(c.bytes));
  info.add("corpus_digest", static_cast<double>(c.digest));
  std::cerr << "perfbench " << spec.name << ": " << c.items.size()
            << " documents, " << c.bytes << " bytes, setup "
            << median(setup.times_s) << " s, " << jobs << " workers\n";

  Check check;
  if (!setup.deterministic) {
    check.wrong_answer("corpus generation is not deterministic for this seed");
  }

  const core::BatchOptions options = batch_options(spec, jobs);
  std::string detector_id;
  core::FrontEndOptions fe_options;
  if (spec.open_loop) {
    core::ServeOptions serve_options;
    serve_options.jobs = jobs;
    detector_id = core::ScanService(serve_options).detector_id();
    fe_options = serve_options.frontend;
  } else {
    detector_id = core::BatchScanner(options).detector_id();
    fe_options = scanner_frontend(options);
  }
  const Reference ref = make_reference(c, detector_id, fe_options, check);
  info.add("reference_digest", static_cast<double>(ref.digest));

  const std::uint64_t run_seed = mix64(args.seed * 0x9e3779b97f4a7c15ULL + 7);
  const auto requests = make_requests(
      c.items.size(), spec.request_docs_per_job * jobs, run_seed);
  // End-to-end figures of the measured window.
  double window_s = 0, window_cpu_s = 0, window_user_s = 0;
  std::uint64_t window_docs = 0, window_in = 0, window_out = 0;
  Usage usage;  ///< of the whole measured window
  double usage_docs = 0;  ///< documents scanned in the measured window
  std::vector<double> latencies;
  // Per-layer figures of the program's own path (traced run only).
  double busy_ratio = 0;
  core::ServeStats serve_stats;
  Tail lag_tail;
  // The traced run splits its window: the program's path, then the
  // decomposition unobserved, then the decomposition with spans.
  const double program_s = args.trace ? args.seconds / 3 : args.seconds;

  if (!spec.open_loop) {
    core::BatchScanner scanner(options);
    // Warm-up: one untimed, checked pass.
    run_closed(scanner, c, ref, requests, run_seed ^ 1, 0.0, spec.detonate,
               check);
    const ClosedResult r = run_closed(scanner, c, ref, requests, run_seed ^ 2,
                                      program_s, spec.detonate, check);
    window_s = r.pass_wall_s;
    window_cpu_s = r.pass_cpu_s;
    window_user_s = r.pass_user_s;
    usage = r.usage;
    usage_docs = static_cast<double>(r.passes * c.items.size());
    window_docs = c.items.size();
    window_in = c.bytes;
    window_out = r.pass_output_bytes;
    latencies = r.latencies_s;
    info.add("passes", static_cast<double>(r.passes));
    busy_ratio = r.phase_s / (r.busy_s * static_cast<double>(jobs));
  } else {
    core::ServeOptions serve_options;
    serve_options.jobs = jobs;
    warm_up_service(serve_options, c, ref, check);
    core::ScanService service(serve_options);
    Order order(c.items.size(), run_seed);
    // Reference-rate phase (the latency metrics), then the rate ladder.
    const double reference_s = args.trace ? program_s : 0.6 * program_s;
    const OpenPhase p = run_open(service, c, ref, order, kServeRates[0],
                                 reference_s, run_seed ^ 2, check);
    serve_stats = service.stats();
    window_s = p.seconds;
    window_cpu_s = p.usage.user_s + p.usage.sys_s;
    window_user_s = p.usage.user_s;
    usage = p.usage;
    usage_docs = static_cast<double>(p.completed);
    window_docs = p.completed;
    window_in = p.input_bytes;
    window_out = p.output_bytes;
    latencies = p.latencies_s;
    lag_tail = tail_of(p.lag_s);
    info.add("serve_reference_rate", kServeRates[0], "1/s");
    info.add("serve_latency_limit_s", kServeLatencyLimitS, "s");
    info.add("serve_rejected", static_cast<double>(p.rejected));
    info.add("loadgen_lag_tail_s", lag_tail.value, "s");
    // A generator that fell behind its schedule did not offer the rate it
    // claims, so the latency figures are invalid. The gated metrics count
    // CPU time per document, which the schedule does not enter.
    const bool latency_valid = lag_tail.value <= kLoadgenLagBoundS;
    info.add("latency_valid", latency_valid ? 1.0 : 0.0);
    if (!latency_valid) {
      std::cerr << "perfbench: load generator lagged " << lag_tail.value
                << " s; the latency figures are invalid\n";
    }
    if (!args.trace) {
      const double rung_s = 0.4 * program_s / (std::size(kServeRates) - 1);
      info.add("sustained_rate",
               sustained_rate(service, c, ref, order, p, rung_s, jobs,
                              run_seed, check, info),
               "1/s");
    }
  }

  // Wall-clock figures. They are printed, not gated: on a shared host the
  // time stolen from this guest moves them by a factor of two between
  // back-to-back runs (see README.md).
  const Tail tail = tail_of(latencies);
  const double window_mib = static_cast<double>(window_in) / (1 << 20);
  info.add("docs_per_s", static_cast<double>(window_docs) / window_s, "1/s");
  info.add("input_mb_per_s", window_mib / window_s, "MiB/s");
  // User time alone, beside the gated user-plus-kernel figure: a change
  // that moves only allocation and page-fault work shows in the gap.
  info.add("docs_per_user_cpu_s",
           static_cast<double>(window_docs) / window_user_s, "1/s");
  info.add("latency_p50_s", median(latencies), "s");
  info.add("latency_tail_s", tail.value, "s");
  info.add("latency_tail_percentile", tail.percentile);
  info.add("latency_samples", static_cast<double>(latencies.size()));
  const double sys_share = usage.sys_s / (usage.user_s + usage.sys_s);
  const double faults_per_doc = usage.minor_faults / usage_docs;
  info.add("sys_share", sys_share, "ratio");
  // Printed, not gated: on serve the peak depends on which detonations
  // happen to overlap, and moved between 100 and 190 MiB across seeds.
  info.add("peak_rss_mb", peak_rss_mib(), "MiB");
  info.add("minor_faults_per_doc", faults_per_doc, "count");

  std::vector<Metric> metrics;
  if (!args.trace) {
    const bool deterministic = setup.deterministic;
    for (int k = 0; k < kSetupRepeatsAfter; ++k) {
      setup.repeat(spec, args.seed, jobs);
    }
    if (deterministic && !setup.deterministic) {
      check.wrong_answer("corpus generation is not deterministic for this seed");
    }
    const double setup_s = median(setup.times_s);
    info.add("setup_min_s",
             *std::min_element(setup.times_s.begin(), setup.times_s.end()),
             "s");
    metrics = {
        {"setup_s", setup_s, "s"},
        {"docs_per_cpu_s", static_cast<double>(window_docs) / window_cpu_s,
         "1/s"},
        {"input_mb_per_cpu_s", window_mib / window_cpu_s, "MiB/s"},
        {"output_ratio",
         static_cast<double>(window_out) / static_cast<double>(window_in),
         "ratio"},
    };
  } else {
    const double part_s = args.seconds / 3;
    const TracedResult bare =
        run_traced(spec, detector_id, fe_options, c, ref, jobs, requests,
                   run_seed ^ 5, part_s, /*record_spans=*/false, check);
    const TracedResult t =
        run_traced(spec, detector_id, fe_options, c, ref, jobs, requests,
                   run_seed ^ 6, part_s, /*record_spans=*/true, check);
    if (!args.spans_path.empty() && !write_spans(args.spans_path, t.logs)) {
      std::cerr << "perfbench: cannot write spans to " << args.spans_path
                << "\n";
      return 2;
    }
    const LayerTimes lt = layer_times(t.logs);
    const double docs = static_cast<double>(t.docs);
    auto per_doc = [&](const char* span) {
      const auto it = lt.self_s.find(span);
      return it == lt.self_s.end() ? 0.0 : it->second / docs;
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const LayerCounts& k = t.first_pass;
    const Tail det_tail = tail_of(lt.detonate_s);
    const double bare_dps = static_cast<double>(bare.docs) / bare.cpu_s;
    const double traced_dps = docs / t.cpu_s;
    metrics = {
        {"pdf.parse_s", per_doc("pdf.parse"), "s"},
        {"pdf.decode_s", per_doc("pdf.decode"), "s"},
        {"pdf.decoded_bytes", k.decoded_bytes, "bytes"},
        {"pdf.decode_useful_ratio",
         ratio(k.decoded_useful_bytes, k.decoded_bytes), "ratio"},
        {"pdf.write_s", per_doc("pdf.write"), "s"},
        {"pdf.output_bytes", k.output_bytes, "bytes"},
        {"core.features_s", per_doc("core.features"), "s"},
        {"core.instrument_s", per_doc("core.instrument"), "s"},
        {"core.scripts_instrumented", k.scripts_instrumented, "count"},
        {"core.embedded_docs", k.embedded_docs, "count"},
        {"core.frontend_s", per_doc("core.frontend"), "s"},
        {"core.doc_self_s", per_doc("doc"), "s"},
        {"jsstatic.analyze_s", per_doc("jsstatic.analyze"), "s"},
        {"jsstatic.proven_clean_ratio",
         ratio(k.js_proven_clean, k.js_analyzed_docs), "ratio"},
        {"jsstatic.truncated", k.js_truncated, "count"},
        {"reader.detonate_p50_s", median(lt.detonate_s), "s"},
        {"reader.detonate_tail_s", det_tail.value, "s"},
        {"reader.detonations", k.detonations, "count"},
        {"reader.scripts_executed", k.scripts_executed, "count"},
        {"reader.js_reported_bytes", k.js_reported_bytes, "bytes"},
        {"js.paths_explored", k.paths_explored, "count"},
        {"js.paths_dropped", k.paths_dropped, "count"},
        {"sys.trace_events", k.trace_events, "count"},
        {"support.arena_high_water_bytes", t.arena_high_water, "bytes"},
        {"batch_scanner.busy_ratio", busy_ratio, "ratio"},
        {"process.sys_share", sys_share, "ratio"},
        {"process.minor_faults_per_doc", faults_per_doc, "count"},
        {"scan_service.rejected", static_cast<double>(serve_stats.rejected),
         "count"},
        {"scan_service.degraded_docs",
         static_cast<double>(serve_stats.degraded_docs), "count"},
        {"scan_service.degrade_enters",
         static_cast<double>(serve_stats.degrade_enters), "count"},
        {"scan_service.steals", static_cast<double>(serve_stats.steals),
         "count"},
        {"loadgen.lag_tail_s", lag_tail.value, "s"},
        {"trace.overhead_pct", 100.0 * (bare_dps / traced_dps - 1.0), "%"},
    };
    info.add("traced_docs", docs);
    info.add("detonate_samples", static_cast<double>(lt.detonate_s.size()));
    info.add("detonate_tail_percentile", det_tail.percentile);
  }

  auto share = [](std::uint64_t part, std::uint64_t whole) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<std::uint64_t>(1, whole));
  };
  info.add("failed_ratio", share(check.failed, check.attempted), "ratio");
  if (spec.detonate) {
    info.add("detection_rate",
             share(check.detected, check.expected_malicious), "ratio");
    info.add("false_positive_rate",
             share(check.false_positives, check.expected_benign), "ratio");
    info.add("crash_plain_checked", static_cast<double>(check.either));
    info.add("crash_plain_detected",
             static_cast<double>(check.either_detected));
  }
  info.add("errors", static_cast<double>(check.errors));
  info.add("crc_mismatches", static_cast<double>(check.crc_mismatches));
  info.add("content_mismatches",
           static_cast<double>(check.content_mismatches));
  info.add("verdict_mismatches", static_cast<double>(check.verdict_mismatches));
  info.add("rejected", static_cast<double>(check.rejected));
  for (const std::string& f : check.first_failures) {
    std::cerr << "perfbench: FAIL " << f << "\n";
  }
  const bool correct = check.wrong == 0;
  std::cout << "info " << info.str() << "\n";
  std::cout << result_line(correct, std::max<std::uint64_t>(1, check.attempted),
                           check.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Self-test

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "self-test FAIL: " << what << "\n";
      ++failures;
    }
  };
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // The percentile rule: the highest percentile (capped at p99) with at
  // least ten samples beyond it.
  expect(tail_percentile(10) == 0.0, "10 samples support no tail");
  expect(near(tail_percentile(11), 100.0 / 11.0), "11 samples -> rank 1");
  expect(near(tail_percentile(20), 50.0), "20 samples -> p50");
  expect(near(tail_percentile(400), 97.5), "400 samples -> p97.5");
  expect(near(tail_percentile(1000), 99.0), "1000 samples -> p99");
  expect(near(tail_percentile(5000), 99.0), "p99 is the cap");
  for (std::size_t n : {11u, 20u, 57u, 400u, 999u, 1000u, 4321u}) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
    const Tail t = tail_of(v);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
    expect(beyond >= 10, "ten samples beyond the tail at n=" +
                             std::to_string(n));
    expect(t.percentile == 99.0 || beyond == 10,
           "tail is the highest such percentile at n=" + std::to_string(n));
  }
  expect(tail_of({1, 2, 3}).value == 3.0, "tiny samples report the maximum");
  expect(median({3, 1, 2}) == 2.0, "median");

  // Each seed generates the same corpus, and different seeds differ.
  for (const Spec& spec : specs()) {
    const Corpus a = make_corpus(spec, 7);
    const Corpus b = make_corpus(spec, 7);
    const Corpus d = make_corpus(spec, 8);
    expect(a.digest == b.digest && a.items.size() == b.items.size(),
           spec.name + ": seed 7 regenerates the same corpus");
    expect(a.digest != d.digest, spec.name + ": seeds 7 and 8 differ");
  }

  // The content check passes instrumented output, an embedded PDF
  // included, and catches a writer that loses content.
  {
    const std::string detector_id =
        core::BatchScanner(core::BatchOptions{}).detector_id();
    const core::FrontEnd frontend(detector_id);
    const support::Bytes host = ladder_document(8 * 1024, 11);
    const core::FrontEndResult r = frontend.process(host);
    expect(r.ok && !r.record.entries.empty() &&
               content_mismatch(host, r.output).empty(),
           "instrumented output keeps the input's content");
    corpus::CorpusGenerator gen(corpus::CorpusConfig{});
    const support::Bytes embedding =
        gen.generate_embedded_attack_sample(0).data;
    const core::FrontEndResult e = frontend.process(embedding);
    expect(e.ok && !e.embedded.empty() &&
               content_mismatch(embedding, e.output).empty(),
           "instrumented embedded PDF keeps its content");

    // Copies of the output with one non-script stream cut short, and with
    // one object dropped.
    pdf::Document cut = load_decoded(r.output);
    std::set<int> scripts;
    for (const auto& [num, obj] : cut.objects()) {
      collect_script_objects(obj, scripts);
    }
    int victim = 0;
    for (auto& [num, obj] : cut.objects()) {
      if (obj.is_stream() && !scripts.count(num) &&
          obj.as_stream().data.size() > 16) {
        victim = num;
        const support::BytesView data = obj.as_stream().data;
        obj.as_stream().data = support::Bytes(data.begin(),
                                              data.begin() + data.size() / 2);
        break;
      }
    }
    expect(victim != 0 &&
               !content_mismatch(host, pdf::write_document(cut)).empty(),
           "a truncated page stream is caught");
    pdf::Document dropped = load_decoded(r.output);
    dropped.objects().erase(victim);
    expect(!content_mismatch(host, pdf::write_document(dropped)).empty(),
           "a dropped object is caught");
  }

  // Result line shape.
  const std::string line =
      result_line(true, 3, 0, {{"a_s", 0.5, "s"}, {"b", 2, "count"}});
  expect(line ==
             "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":"
             "{\"a_s\":{\"value\":0.5,\"unit\":\"s\"},\"b\":{\"value\":2,"
             "\"unit\":\"count\"}}}",
         "result line format");

  std::cerr << (failures ? "self-test failed\n" : "self-test passed\n");
  return failures ? 1 : 0;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value != "0";
    else if (flag == "--spans") args.spans_path = value;
    else return false;
  }
  return args.self_test || (!args.workload.empty() && args.seconds > 0);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--spans FILE] | --self-test\n";
      return 2;
    }
    return args.self_test ? self_test() : run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
