#include "db/catalog.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/string_util.h"
#include "format/parser.h"
#include "io/file.h"

namespace scanraw {

bool TableMetadata::FullyLoaded() const {
  if (!layout_known || chunks.empty()) return false;
  const size_t cols = schema.num_columns();
  for (const auto& chunk : chunks) {
    if (chunk.loaded_columns.size() < cols) return false;
  }
  return true;
}

double TableMetadata::LoadedFraction() const {
  if (!layout_known || chunks.empty() || schema.num_columns() == 0) return 0.0;
  size_t loaded = 0;
  for (const auto& chunk : chunks) loaded += chunk.loaded_columns.size();
  return static_cast<double>(loaded) /
         static_cast<double>(chunks.size() * schema.num_columns());
}

Status Catalog::CreateTable(const std::string& name,
                            const std::string& raw_path, const Schema& schema,
                            uint64_t target_chunk_rows) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  TableMetadata meta;
  meta.name = name;
  meta.raw_path = raw_path;
  meta.schema = schema;
  meta.target_chunk_rows = target_chunk_rows;
  tables_.emplace(name, std::move(meta));
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  MutexLock lock(mu_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("table " + name + " not found");
  }
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.count(name) > 0;
}

Result<TableMetadata> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " not found");
  }
  return it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

Status Catalog::SetChunkLayout(const std::string& name,
                               std::vector<ChunkMetadata> chunks) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " not found");
  }
  if (it->second.layout_known) {
    return Status::AlreadyExists("layout for " + name + " already recorded");
  }
  it->second.chunks = std::move(chunks);
  it->second.layout_known = true;
  return Status::OK();
}

Status Catalog::AppendChunk(const std::string& name,
                            const ChunkMetadata& chunk) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " not found");
  }
  if (it->second.layout_known) {
    return Status::AlreadyExists("layout for " + name + " already sealed");
  }
  // Idempotent re-append (an abandoned discovery scan may rediscover a
  // prefix of the layout): accept a chunk that matches what is recorded.
  if (chunk.chunk_index < it->second.chunks.size()) {
    const ChunkMetadata& existing = it->second.chunks[chunk.chunk_index];
    if (existing.raw_offset == chunk.raw_offset &&
        existing.raw_size == chunk.raw_size &&
        existing.num_rows == chunk.num_rows) {
      return Status::OK();
    }
    return Status::InvalidArgument(StringPrintf(
        "chunk %llu re-appended with different extent",
        static_cast<unsigned long long>(chunk.chunk_index)));
  }
  if (chunk.chunk_index != it->second.chunks.size()) {
    return Status::InvalidArgument(StringPrintf(
        "appending chunk %llu but %zu chunks recorded",
        static_cast<unsigned long long>(chunk.chunk_index),
        it->second.chunks.size()));
  }
  it->second.chunks.push_back(chunk);
  return Status::OK();
}

Status Catalog::MarkLayoutComplete(const std::string& name) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " not found");
  }
  it->second.layout_known = true;
  return Status::OK();
}

Status Catalog::RecordSegment(const std::string& name, uint64_t chunk_index,
                              const StoredSegment& segment,
                              const std::map<size_t, ColumnStats>& stats) {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " not found");
  }
  if (chunk_index >= it->second.chunks.size()) {
    return Status::OutOfRange(
        StringPrintf("chunk %llu out of range",
                     static_cast<unsigned long long>(chunk_index)));
  }
  ChunkMetadata& chunk = it->second.chunks[chunk_index];
  chunk.segments.push_back(segment);
  for (size_t c : segment.columns) chunk.loaded_columns.insert(c);
  for (const auto& [col, st] : stats) {
    auto [pos, inserted] = chunk.stats.emplace(col, st);
    if (!inserted) {
      pos->second.min_value = std::min(pos->second.min_value, st.min_value);
      pos->second.max_value = std::max(pos->second.max_value, st.max_value);
      if (st.has_double) {
        if (pos->second.has_double) {
          pos->second.min_double =
              std::min(pos->second.min_double, st.min_double);
          pos->second.max_double =
              std::max(pos->second.max_double, st.max_double);
        } else {
          pos->second.has_double = true;
          pos->second.min_double = st.min_double;
          pos->second.max_double = st.max_double;
        }
      }
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ persistence --
//
// Versioned line-oriented text format. First line: `scanraw-catalog v2`;
// files without the header are legacy v1 (unescaped fields, int-only
// stats). One record per line:
//   table <name> <raw_path> <delimiter-int> <target_chunk_rows> <layout_known>
//   col <table> <name> <type-int>
//   chunk <table> <index> <raw_offset> <raw_size> <num_rows>
//   stat <table> <chunk> <col> <min> <max> [D <hexmin> <hexmax>]
//   seg <table> <chunk> <offset> <size> <col>[,<col>...]
// String fields (names, raw_path) are percent-escaped so embedded
// whitespace round-trips; double stats use hexfloat (%a) so denormals and
// 17-significant-digit values round-trip bit-exactly.

namespace {

constexpr int kCatalogFormatVersion = 2;
constexpr char kCatalogMagic[] = "scanraw-catalog";

std::string FormatHexDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

Result<double> ParseHexDouble(const std::string& s) {
  if (s.empty()) return Status::Corruption("empty double field");
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return Status::Corruption("bad double field: " + s);
  }
  return v;
}

}  // namespace

std::map<std::string, TableMetadata> Catalog::Snapshot() const {
  MutexLock lock(mu_);
  return tables_;
}

void Catalog::Restore(std::map<std::string, TableMetadata> tables) {
  MutexLock lock(mu_);
  tables_ = std::move(tables);
}

Status Catalog::SaveToFile(const std::string& path) const {
  // Snapshot under the lock; serialize and hit the disk outside it so a
  // slow device never blocks concurrent GetTable/RecordSegment.
  const std::map<std::string, TableMetadata> tables = Snapshot();
  std::ostringstream out;
  out << kCatalogMagic << " v" << kCatalogFormatVersion << '\n';
  for (const auto& [name, t] : tables) {
    out << "table " << PercentEscape(name) << ' ' << PercentEscape(t.raw_path)
        << ' ' << static_cast<int>(t.schema.delimiter()) << ' '
        << t.target_chunk_rows << ' ' << (t.layout_known ? 1 : 0) << '\n';
    for (const auto& col : t.schema.columns()) {
      out << "col " << PercentEscape(name) << ' ' << PercentEscape(col.name)
          << ' ' << static_cast<int>(col.type) << '\n';
    }
    for (const auto& c : t.chunks) {
      out << "chunk " << PercentEscape(name) << ' ' << c.chunk_index << ' '
          << c.raw_offset << ' ' << c.raw_size << ' ' << c.num_rows << '\n';
      for (const auto& [col, st] : c.stats) {
        out << "stat " << PercentEscape(name) << ' ' << c.chunk_index << ' '
            << col << ' ' << st.min_value << ' ' << st.max_value;
        if (st.has_double) {
          out << " D " << FormatHexDouble(st.min_double) << ' '
              << FormatHexDouble(st.max_double);
        }
        out << '\n';
      }
      for (const auto& seg : c.segments) {
        out << "seg " << PercentEscape(name) << ' ' << c.chunk_index << ' '
            << seg.page.offset << ' ' << seg.page.size << ' ';
        for (size_t i = 0; i < seg.columns.size(); ++i) {
          if (i > 0) out << ',';
          out << seg.columns[i];
        }
        out << '\n';
      }
    }
  }
  // Atomic replace: a crash mid-save leaves the previous catalog intact.
  return AtomicWriteFile(path, out.str());
}

Status Catalog::LoadFromFile(const std::string& path, LoadStats* load_stats) {
  auto contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const bool last_terminated =
      contents->empty() || contents->back() == '\n';

  std::vector<std::string> lines;
  {
    std::istringstream in(*contents);
    std::string line;
    while (std::getline(in, line)) lines.push_back(std::move(line));
  }

  int version = 1;
  size_t first = 0;
  if (!lines.empty() &&
      lines[0].compare(0, sizeof(kCatalogMagic) - 1, kCatalogMagic) == 0) {
    std::istringstream hs(lines[0]);
    std::string magic, ver;
    hs >> magic >> ver;
    if (ver.size() < 2 || ver[0] != 'v') {
      return Status::Corruption("bad catalog header: " + lines[0]);
    }
    auto parsed = ParseUint32(ver.substr(1));
    if (!parsed.ok()) {
      return Status::Corruption("bad catalog header: " + lines[0]);
    }
    version = static_cast<int>(*parsed);
    if (version > kCatalogFormatVersion) {
      return Status::Corruption(StringPrintf(
          "catalog version %d newer than supported %d", version,
          kCatalogFormatVersion));
    }
    first = 1;
  }
  // v1 files predate escaping; their fields are raw.
  const bool escaped = version >= 2;
  auto field = [escaped](const std::string& tok) {
    return escaped ? PercentUnescape(tok) : tok;
  };

  std::map<std::string, TableMetadata> tables;
  std::map<std::string, std::vector<ColumnDef>> schema_cols;
  std::map<std::string, char> delimiters;

  auto parse_line = [&](const std::string& line) -> Status {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "table") {
      TableMetadata t;
      std::string name_tok, path_tok;
      int delim = 0, layout = 0;
      ls >> name_tok >> path_tok >> delim >> t.target_chunk_rows >> layout;
      if (ls.fail()) return Status::Corruption("bad table line: " + line);
      t.name = field(name_tok);
      t.raw_path = field(path_tok);
      t.layout_known = layout != 0;
      delimiters[t.name] = static_cast<char>(delim);
      tables[t.name] = std::move(t);
    } else if (kind == "col") {
      std::string table, col_name;
      int type = 0;
      ls >> table >> col_name >> type;
      if (ls.fail()) return Status::Corruption("bad col line: " + line);
      schema_cols[field(table)].push_back(
          ColumnDef{field(col_name), static_cast<FieldType>(type)});
    } else if (kind == "chunk") {
      std::string table;
      ChunkMetadata c;
      ls >> table >> c.chunk_index >> c.raw_offset >> c.raw_size >> c.num_rows;
      if (ls.fail()) return Status::Corruption("bad chunk line: " + line);
      auto it = tables.find(field(table));
      if (it == tables.end()) return Status::Corruption("chunk before table");
      if (c.chunk_index != it->second.chunks.size()) {
        return Status::Corruption("chunk records out of order");
      }
      it->second.chunks.push_back(std::move(c));
    } else if (kind == "stat") {
      std::string table;
      uint64_t chunk = 0;
      size_t col = 0;
      ColumnStats st;
      ls >> table >> chunk >> col >> st.min_value >> st.max_value;
      if (ls.fail()) return Status::Corruption("bad stat line: " + line);
      std::string tag;
      if (ls >> tag) {
        if (tag != "D") return Status::Corruption("bad stat line: " + line);
        std::string lo_tok, hi_tok;
        ls >> lo_tok >> hi_tok;
        if (ls.fail()) return Status::Corruption("bad stat line: " + line);
        auto lo = ParseHexDouble(lo_tok);
        if (!lo.ok()) return lo.status();
        auto hi = ParseHexDouble(hi_tok);
        if (!hi.ok()) return hi.status();
        st.has_double = true;
        st.min_double = *lo;
        st.max_double = *hi;
      }
      auto it = tables.find(field(table));
      if (it == tables.end() || chunk >= it->second.chunks.size()) {
        return Status::Corruption("stat for unknown chunk");
      }
      it->second.chunks[chunk].stats[col] = st;
    } else if (kind == "seg") {
      std::string table, cols_text;
      uint64_t chunk = 0;
      StoredSegment seg;
      ls >> table >> chunk >> seg.page.offset >> seg.page.size >> cols_text;
      if (ls.fail()) return Status::Corruption("bad seg line: " + line);
      for (auto part : SplitString(cols_text, ',')) {
        auto col = ParseUint32(part);
        if (!col.ok()) return Status::Corruption("bad seg columns: " + line);
        seg.columns.push_back(*col);
      }
      auto it = tables.find(field(table));
      if (it == tables.end() || chunk >= it->second.chunks.size()) {
        return Status::Corruption("seg for unknown chunk");
      }
      ChunkMetadata& cm = it->second.chunks[chunk];
      cm.segments.push_back(seg);
      for (size_t c : seg.columns) cm.loaded_columns.insert(c);
    } else {
      return Status::Corruption("unknown catalog record: " + line);
    }
    return Status::OK();
  };

  LoadStats stats;
  stats.version = version;
  for (size_t i = first; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    Status s = parse_line(lines[i]);
    if (!s.ok()) {
      // A torn trailing line (no final newline) means the writer died
      // mid-append; everything before it is intact, so drop just the tail.
      if (i == lines.size() - 1 && !last_terminated) {
        stats.torn_tail_dropped = true;
        stats.torn_tail = lines[i];
        break;
      }
      return s;
    }
  }
  for (auto& [name, t] : tables) {
    t.schema = Schema(schema_cols[name], delimiters[name]);
  }
  if (load_stats != nullptr) *load_stats = stats;
  Restore(std::move(tables));
  return Status::OK();
}

}  // namespace scanraw
