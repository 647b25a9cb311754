#include "surrogate/table.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "surrogate/benchmark.h"

namespace hypertune {

namespace {

constexpr char kMagic[8] = {'H', 'T', 'T', 'B', '0', '0', '0', '1'};
constexpr std::size_t kHeaderBytes = 24;
constexpr std::uint32_t kFlagResumable = 1u << 0;

void ValidateShape(const TableData& data) {
  HT_CHECK_MSG(data.rows > 0, "table must have at least one row");
  const std::size_t f = data.fidelities.size();
  HT_CHECK_MSG(f > 0, "table must have at least one fidelity");
  const std::size_t cells = static_cast<std::size_t>(data.rows) * f;
  HT_CHECK_MSG(data.losses.size() == cells,
               "losses size " << data.losses.size() << " != rows*F "
                              << cells);
  HT_CHECK_MSG(data.cum_times.size() == cells,
               "cum_times size " << data.cum_times.size() << " != rows*F "
                                 << cells);
  for (std::size_t i = 0; i < f; ++i) {
    HT_CHECK_MSG(data.fidelities[i] > 0,
                 "fidelities must be positive, got " << data.fidelities[i]);
    HT_CHECK_MSG(i == 0 || data.fidelities[i] > data.fidelities[i - 1],
                 "fidelities must be strictly ascending");
  }
  for (std::uint32_t row = 0; row < data.rows; ++row) {
    const double* cum = data.cum_times.data() + std::size_t{row} * f;
    for (std::size_t i = 0; i < f; ++i) {
      HT_CHECK_MSG(cum[i] > 0, "cumulative times must be positive");
      HT_CHECK_MSG(i == 0 || cum[i] > cum[i - 1],
                   "cumulative times must be strictly ascending per row");
    }
  }
}

void AppendU32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void AppendDoubles(std::string& out, const std::vector<double>& v) {
  out.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
}

std::uint32_t ReadU32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

// Header + shape + CRC validation shared by the mmap loader and
// UnpackTable. Returns {rows, F, resumable} and leaves `payload` pointing
// at the fidelity array.
struct ParsedHeader {
  std::uint32_t rows = 0;
  std::size_t num_fidelities = 0;
  bool resumable = true;
  const double* payload = nullptr;
};

ParsedHeader ParseHeader(const unsigned char* bytes, std::size_t size,
                         const std::string& origin) {
  HT_CHECK_MSG(size >= kHeaderBytes,
               origin << ": truncated table (" << size << " bytes)");
  HT_CHECK_MSG(std::memcmp(bytes, kMagic, 8) == 0,
               origin << ": not an HTTB0001 table");
  ParsedHeader header;
  header.rows = ReadU32(bytes + 8);
  header.num_fidelities = ReadU32(bytes + 12);
  const std::uint32_t flags = ReadU32(bytes + 16);
  const std::uint32_t crc = ReadU32(bytes + 20);
  header.resumable = (flags & kFlagResumable) != 0;
  HT_CHECK_MSG(header.rows > 0 && header.num_fidelities > 0,
               origin << ": empty table");
  const std::size_t cells =
      std::size_t{header.rows} * header.num_fidelities;
  const std::size_t expected =
      kHeaderBytes + 8 * (header.num_fidelities + 2 * cells);
  HT_CHECK_MSG(size == expected, origin << ": size " << size
                                        << " != expected " << expected);
  HT_CHECK_MSG(Crc32(bytes + kHeaderBytes, size - kHeaderBytes) == crc,
               origin << ": payload CRC mismatch");
  header.payload = reinterpret_cast<const double*>(bytes + kHeaderBytes);
  return header;
}

}  // namespace

std::string PackTable(const TableData& data) {
  ValidateShape(data);
  std::string out;
  const std::size_t cells =
      std::size_t{data.rows} * data.fidelities.size();
  out.reserve(kHeaderBytes + 8 * (data.fidelities.size() + 2 * cells));
  out.append(kMagic, 8);
  AppendU32(out, data.rows);
  AppendU32(out, static_cast<std::uint32_t>(data.fidelities.size()));
  AppendU32(out, data.resumable ? kFlagResumable : 0);
  AppendU32(out, 0);  // CRC patched below
  AppendDoubles(out, data.fidelities);
  AppendDoubles(out, data.losses);
  AppendDoubles(out, data.cum_times);
  const std::uint32_t crc =
      Crc32(out.data() + kHeaderBytes, out.size() - kHeaderBytes);
  std::memcpy(out.data() + 20, &crc, 4);
  return out;
}

TableVerifyStats VerifyTableFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  HT_CHECK_MSG(in.good(), path << ": cannot open for verification");
  const std::streamoff size = in.tellg();
  HT_CHECK_MSG(size >= 0, path << ": cannot size for verification");
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  HT_CHECK_MSG(in.gcount() == static_cast<std::streamsize>(bytes.size()),
               path << ": short read during verification");
  const ParsedHeader header =
      ParseHeader(reinterpret_cast<const unsigned char*>(bytes.data()),
                  bytes.size(), path);
  const std::size_t f = header.num_fidelities;
  const double* const fidelities = header.payload;
  const double* const losses = fidelities + f;
  const double* const cum_times = losses + std::size_t{header.rows} * f;
  for (std::size_t i = 0; i < f; ++i) {
    HT_CHECK_MSG(std::isfinite(fidelities[i]) && fidelities[i] > 0,
                 path << ": fidelity " << i << " not positive ("
                      << fidelities[i] << ")");
    HT_CHECK_MSG(i == 0 || fidelities[i] > fidelities[i - 1],
                 path << ": fidelity ladder not strictly ascending at " << i);
  }
  for (std::uint32_t row = 0; row < header.rows; ++row) {
    const double* const loss_row = losses + std::size_t{row} * f;
    const double* const cum_row = cum_times + std::size_t{row} * f;
    for (std::size_t i = 0; i < f; ++i) {
      HT_CHECK_MSG(std::isfinite(loss_row[i]),
                   path << ": non-finite loss at row " << row << " fidelity "
                        << i);
      HT_CHECK_MSG(std::isfinite(cum_row[i]) && cum_row[i] > 0,
                   path << ": non-positive cumulative time at row " << row
                        << " fidelity " << i);
      HT_CHECK_MSG(i == 0 || cum_row[i] > cum_row[i - 1],
                   path << ": cumulative times not strictly ascending at row "
                        << row << " fidelity " << i);
    }
  }
  return {header.rows, f, header.resumable, bytes.size()};
}

TableData TabulateBenchmark(SyntheticBenchmark& benchmark, std::uint32_t rows,
                            std::size_t num_fidelities, std::uint64_t seed) {
  HT_CHECK_MSG(num_fidelities > 0, "tabulation needs at least one fidelity");
  TableData data;
  data.rows = rows;
  data.resumable = benchmark.spec().resumable;
  // Geometric ladder ending at R, successive-halving style (factor 2).
  const double R = benchmark.R();
  data.fidelities.resize(num_fidelities);
  for (std::size_t i = 0; i < num_fidelities; ++i) {
    data.fidelities[num_fidelities - 1 - i] =
        R / static_cast<double>(std::uint64_t{1} << i);
  }
  const std::size_t cells = std::size_t{rows} * num_fidelities;
  data.losses.reserve(cells);
  data.cum_times.reserve(cells);
  Rng rng(seed);
  for (std::uint32_t row = 0; row < rows; ++row) {
    const Configuration config = benchmark.space().Sample(rng);
    for (double fidelity : data.fidelities) {
      data.losses.push_back(benchmark.Loss(config, fidelity));
      data.cum_times.push_back(benchmark.Duration(config, 0, fidelity));
    }
  }
  return data;
}

TableData UnpackTable(const std::string& bytes) {
  const ParsedHeader header =
      ParseHeader(reinterpret_cast<const unsigned char*>(bytes.data()),
                  bytes.size(), "buffer");
  TableData data;
  data.rows = header.rows;
  data.resumable = header.resumable;
  const std::size_t f = header.num_fidelities;
  const std::size_t cells = std::size_t{header.rows} * f;
  data.fidelities.assign(header.payload, header.payload + f);
  data.losses.assign(header.payload + f, header.payload + f + cells);
  data.cum_times.assign(header.payload + f + cells,
                        header.payload + f + 2 * cells);
  return data;
}

/// Read-only mmap of the whole file; unmapped on destruction.
struct TabularBenchmark::Mapping {
  const unsigned char* bytes = nullptr;
  std::size_t size = 0;

  ~Mapping() {
    if (bytes != nullptr) {
      munmap(const_cast<unsigned char*>(bytes), size);
    }
  }
};

void TabularBenchmark::InitFromPointers() {
  space_ = SearchSpace{};
  space_.Add("row",
             Domain::Integer(0, static_cast<std::int64_t>(rows_) - 1));
}

TabularBenchmark::TabularBenchmark(TableData data) : owned_(std::move(data)) {
  ValidateShape(owned_);
  rows_ = owned_.rows;
  num_fidelities_ = owned_.fidelities.size();
  resumable_ = owned_.resumable;
  fidelities_ = owned_.fidelities.data();
  losses_ = owned_.losses.data();
  cum_times_ = owned_.cum_times.data();
  InitFromPointers();
}

std::unique_ptr<TabularBenchmark> TabularBenchmark::FromFile(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  HT_CHECK_MSG(fd >= 0, path << ": open failed (" << std::strerror(errno)
                             << ")");
  struct stat st{};
  if (fstat(fd, &st) != 0) {
    ::close(fd);
    HT_CHECK_MSG(false, path << ": fstat failed");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the pages alive
  if (addr == MAP_FAILED) {
    // mmap unavailable (exotic filesystem): fall back to an owned copy.
    std::ifstream in(path, std::ios::binary);
    HT_CHECK_MSG(in.good(), path << ": read failed");
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return std::make_unique<TabularBenchmark>(UnpackTable(bytes));
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->bytes = static_cast<const unsigned char*>(addr);
  mapping->size = size;
  const ParsedHeader header = ParseHeader(mapping->bytes, size, path);
  std::unique_ptr<TabularBenchmark> bench(new TabularBenchmark());
  bench->mapping_ = std::move(mapping);
  bench->rows_ = header.rows;
  bench->num_fidelities_ = header.num_fidelities;
  bench->resumable_ = header.resumable;
  bench->fidelities_ = header.payload;
  const std::size_t cells = std::size_t{header.rows} * header.num_fidelities;
  bench->losses_ = header.payload + header.num_fidelities;
  bench->cum_times_ = bench->losses_ + cells;
  bench->InitFromPointers();
  return bench;
}

std::size_t TabularBenchmark::LargeFidelityIndex(double resource) const {
  const double* const end = fidelities_ + num_fidelities_;
  const double* it = std::lower_bound(fidelities_, end, resource);
  if (it == end) --it;
  return static_cast<std::size_t>(it - fidelities_);
}

void TabularBenchmark::FailRowRange(std::uint32_t row) const {
  HT_CHECK_MSG(row < rows_, "row " << row << " out of range (" << rows_
                                   << " rows)");
  std::abort();  // unreachable: the check above always throws
}

double TabularBenchmark::Loss(const Configuration& config,
                              Resource resource) {
  const std::uint32_t row = RowOf(config);
  return losses_[row * num_fidelities_ + FidelityIndex(resource)];
}

double TabularBenchmark::Duration(const Configuration& config, Resource from,
                                  Resource to) {
  const std::uint32_t row = RowOf(config);
  const double* const cum = cum_times_ + row * num_fidelities_;
  const double total = cum[FidelityIndex(to)];
  if (!resumable_ || from <= 0) return total;
  const double duration = total - cum[FidelityIndex(from)];
  HT_CHECK_MSG(duration > 0, "non-positive tabular duration: from " << from
                                                                    << " to "
                                                                    << to);
  return duration;
}

}  // namespace hypertune
