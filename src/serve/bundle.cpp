#include "serve/bundle.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/atomic_file.hpp"
#include "common/check.hpp"
#include "common/parse_num.hpp"
#include "common/rng.hpp"
#include "ml/model_io.hpp"

namespace mf {
namespace {

constexpr const char* kMagic = "macroflow-model-bundle";
constexpr const char* kFooterPrefix = "# payload ";

// Binary container identity (`meta` section); the binary layout is version
// 1 of its own lineage, independent of the text kBundleFormatVersion.
constexpr const char* kBundleKind = "model-bundle";
constexpr std::uint32_t kBundleBinaryVersion = 1;

std::string checksum_of(const std::string& payload) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << fnv1a64(payload);
  return out.str();
}

/// Splits text into lines as std::getline does (a last line without '\n'
/// still counts; a trailing '\n' starts no empty line) and drops one
/// trailing '\r' from each line, so CRLF files read like LF ones.
class LineCursor {
 public:
  explicit LineCursor(std::string_view text) : text_(text) {}

  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    const std::size_t end = std::min(text_.find('\n', pos_), text_.size());
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    return true;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

void check_bundle(const ModelBundle& bundle) {
  MF_CHECK_MSG(bundle.estimator.trained(),
               "only trained estimators can be bundled");
  MF_CHECK_MSG(!bundle.name.empty() &&
                   bundle.name.find_first_of(" \t/\\\r\n") == std::string::npos,
               "bundle names must be non-empty, whitespace- and slash-free");
  MF_CHECK(bundle.version >= 1);
}

}  // namespace

std::string bundle_to_text(const ModelBundle& bundle) {
  check_bundle(bundle);

  // Payload: identity + provenance + estimator token stream, as lines.
  std::ostringstream payload_out;
  ModelWriter writer(payload_out);
  writer.str(bundle.name);
  writer.i64(bundle.version);
  writer.endl();
  const BundleProvenance& p = bundle.provenance;
  writer.u64(p.seed);
  writer.u64(p.dataset_seed);
  writer.i64(p.dataset_rows);
  writer.i64(p.holdout_rows);
  writer.f64(p.holdout_mean_rel_err);
  writer.f64(p.holdout_median_rel_err);
  writer.endl();
  bundle.estimator.save(writer);
  const std::string payload = payload_out.str();

  // Count payload lines for the footer (payload always ends in '\n').
  std::size_t lines = 0;
  for (char c : payload) {
    if (c == '\n') ++lines;
  }

  std::ostringstream out;
  out << kMagic << " v" << kBundleFormatVersion << '\n';
  out << "# name version | seed dataset_seed train_rows holdout_rows"
         " mean_rel_err median_rel_err | estimator...\n";
  out << payload;
  out << kFooterPrefix << lines << " checksum " << checksum_of(payload)
      << '\n';
  return out.str();
}

std::optional<ModelBundle> bundle_from_text(const std::string& text,
                                            std::string* error) {
  LineCursor lines(text);
  std::string_view line;
  if (!lines.next(line)) {
    set_error(error, "empty file");
    return std::nullopt;
  }
  const std::string magic = std::string(kMagic) + " v";
  if (!line.starts_with(magic)) {
    set_error(error, "bad magic: not a model bundle");
    return std::nullopt;
  }
  const std::string_view version_text = line.substr(magic.size());
  if (version_text != std::to_string(kBundleFormatVersion)) {
    set_error(error, "unsupported bundle format version v" +
                         std::string(version_text));
    return std::nullopt;
  }

  // Gather payload lines (everything except comments before the payload and
  // the footer), normalising CRLF, and find the footer.
  std::string payload;
  std::size_t payload_lines = 0;
  bool footer_seen = false;
  std::size_t footer_lines = 0;
  std::string footer_checksum;
  while (lines.next(line)) {
    if (line.starts_with(kFooterPrefix)) {
      ModelReader footer(line.substr(std::string_view(kFooterPrefix).size()));
      const std::string count_text = footer.str();
      const std::string keyword = footer.str();
      footer_checksum = footer.str();
      if (!footer.ok() || keyword != "checksum") {
        set_error(error, "malformed footer");
        return std::nullopt;
      }
      // Checked count parse: "-1" or an overflowing value is corruption,
      // never a wrapped size_t.
      const std::optional<std::size_t> count =
          parse_number<std::size_t>(count_text);
      if (!count) {
        set_error(error, "malformed footer line count");
        return std::nullopt;
      }
      footer_lines = *count;
      footer_seen = true;
      continue;
    }
    if (footer_seen) {
      set_error(error, "data after the footer");
      return std::nullopt;
    }
    if (!line.empty() && line.front() == '#') continue;
    payload += line;
    payload += '\n';
    ++payload_lines;
  }
  if (!footer_seen) {
    set_error(error, "missing footer (truncated bundle)");
    return std::nullopt;
  }
  if (footer_lines != payload_lines) {
    set_error(error, "payload line count mismatch (truncated bundle)");
    return std::nullopt;
  }
  if (checksum_of(payload) != footer_checksum) {
    set_error(error, "payload checksum mismatch (corrupt bundle)");
    return std::nullopt;
  }

  ModelReader reader(payload);
  ModelBundle bundle;
  bundle.name = reader.str();
  bundle.version = static_cast<int>(reader.i64_in(1, 1 << 20));
  BundleProvenance& p = bundle.provenance;
  p.seed = reader.u64();
  p.dataset_seed = reader.u64();
  p.dataset_rows = reader.i64_in(0, 1LL << 40);
  p.holdout_rows = reader.i64_in(0, 1LL << 40);
  p.holdout_mean_rel_err = reader.f64();
  p.holdout_median_rel_err = reader.f64();
  if (!reader.ok()) {
    set_error(error, "malformed bundle identity/provenance");
    return std::nullopt;
  }
  std::optional<CfEstimator> estimator = CfEstimator::load(reader);
  if (!estimator) {
    set_error(error, "malformed estimator payload");
    return std::nullopt;
  }
  bundle.estimator = std::move(*estimator);
  return bundle;
}

std::string bundle_to_binary(const ModelBundle& bundle) {
  check_bundle(bundle);
  BinWriter writer;
  writer.begin_section("meta");
  writer.str(kBundleKind);
  writer.u32(kBundleBinaryVersion);
  writer.begin_section("identity");
  writer.str(bundle.name);
  writer.i32(bundle.version);
  writer.begin_section("provenance");
  const BundleProvenance& p = bundle.provenance;
  writer.u64(p.seed);
  writer.u64(p.dataset_seed);
  writer.i64(p.dataset_rows);
  writer.i64(p.holdout_rows);
  writer.f64(p.holdout_mean_rel_err);
  writer.f64(p.holdout_median_rel_err);
  // The estimator rides as its PR-4 bit-exact token stream, raw: the binary
  // and text bundles share one model codec, so text<->binary conversion can
  // never change a model bit (the bench_persist byte-identity gate).
  std::ostringstream estimator_out;
  ModelWriter model_writer(estimator_out);
  bundle.estimator.save(model_writer);
  writer.begin_section("estimator");
  writer.raw(estimator_out.str());
  return writer.finish();
}

std::optional<ModelBundle> bundle_from_binary(std::string_view bytes,
                                              std::string* error) {
  const std::optional<BinFile> file = BinFile::open(bytes, error);
  if (!file) return std::nullopt;
  const std::optional<std::string_view> meta = file->section("meta");
  if (!meta) {
    set_error(error, "missing meta section");
    return std::nullopt;
  }
  BinCursor meta_cursor(*meta);
  const std::string kind = meta_cursor.str(256);
  const std::uint32_t version = meta_cursor.u32();
  if (!meta_cursor.at_end() || kind != kBundleKind) {
    set_error(error, "not a model-bundle container");
    return std::nullopt;
  }
  if (version != kBundleBinaryVersion) {
    set_error(error, "unsupported binary bundle version v" +
                         std::to_string(version));
    return std::nullopt;
  }
  const std::optional<std::string_view> identity = file->section("identity");
  const std::optional<std::string_view> provenance =
      file->section("provenance");
  const std::optional<std::string_view> estimator_bytes =
      file->section("estimator");
  if (!identity || !provenance || !estimator_bytes) {
    set_error(error, "missing bundle section");
    return std::nullopt;
  }
  ModelBundle bundle;
  BinCursor id_cursor(*identity);
  bundle.name = id_cursor.str(1u << 10);
  bundle.version = id_cursor.i32();
  if (!id_cursor.at_end() || bundle.name.empty() || bundle.version < 1 ||
      bundle.version > (1 << 20) ||
      bundle.name.find_first_of(" \t/\\\r\n") != std::string::npos) {
    set_error(error, "malformed bundle identity");
    return std::nullopt;
  }
  BinCursor prov_cursor(*provenance);
  BundleProvenance& p = bundle.provenance;
  p.seed = prov_cursor.u64();
  p.dataset_seed = prov_cursor.u64();
  p.dataset_rows = prov_cursor.i64();
  p.holdout_rows = prov_cursor.i64();
  p.holdout_mean_rel_err = prov_cursor.f64();
  p.holdout_median_rel_err = prov_cursor.f64();
  if (!prov_cursor.at_end() || p.dataset_rows < 0 ||
      p.dataset_rows > (1LL << 40) || p.holdout_rows < 0 ||
      p.holdout_rows > (1LL << 40)) {
    set_error(error, "malformed bundle provenance");
    return std::nullopt;
  }
  ModelReader reader(*estimator_bytes);
  std::optional<CfEstimator> estimator = CfEstimator::load(reader);
  if (!estimator) {
    set_error(error, "malformed estimator payload");
    return std::nullopt;
  }
  bundle.estimator = std::move(*estimator);
  return bundle;
}

bool save_bundle(const std::string& path, const ModelBundle& bundle,
                 std::string* error, PersistFormat format) {
  // Atomic replace, with stream/short-write failures propagated: a bundle
  // that fails to persist (ENOSPC, unwritable dir) must report so, not
  // leave a truncated .mfb the registry would have to quarantine later.
  return atomic_write_file(path,
                           format == PersistFormat::Binary
                               ? bundle_to_binary(bundle)
                               : bundle_to_text(bundle),
                           error);
}

std::optional<ModelBundle> load_bundle(const std::string& path,
                                       std::string* error) {
  // Whole-file binary-safe read (an ifstream in text mode would translate
  // bytes on some platforms and cannot represent a binary bundle).
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  if (is_binfile(*bytes)) return bundle_from_binary(*bytes, error);
  return bundle_from_text(*bytes, error);
}

}  // namespace mf
