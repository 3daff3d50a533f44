#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"

namespace adaptagg {
namespace {

// "ADAPCKP1", little-endian. Rejecting a bad magic early gives torn page-0
// writes a crisp diagnosis even when the zeroed tail happens to CRC.
constexpr uint64_t kCheckpointMagic = 0x31504B4350414441ull;
constexpr uint32_t kCheckpointVersion = 1;

// Per-page overhead: [u32 crc32c][u32 used], followed by `used` payload
// bytes and zero padding. The CRC covers everything after itself.
constexpr size_t kPageHeaderBytes = 8;

// Fixed manifest bytes before the watermark array: magic(8) + version(4) +
// node(4) + scan_hwm(8) + scan_complete(4) + num_peers(4) + local_bytes(8)
// + global_bytes(8).
constexpr size_t kManifestFixedBytes = 48;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + 4);
  std::memcpy(out->data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + 8);
  std::memcpy(out->data() + at, &v, 8);
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t GetU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Flattens the manifest and both partial sections into one byte stream;
// the pager below chunks it into CRC-signed pages.
std::vector<uint8_t> SerializeBlob(int node, const CheckpointState& state) {
  std::vector<uint8_t> blob;
  blob.reserve(kManifestFixedBytes + 8 * state.fold_watermarks.size() +
               state.local_partials.size() + state.global_partials.size());
  PutU64(&blob, kCheckpointMagic);
  PutU32(&blob, kCheckpointVersion);
  PutU32(&blob, static_cast<uint32_t>(node));
  PutU64(&blob, static_cast<uint64_t>(state.scan_hwm));
  PutU32(&blob, state.scan_complete ? 1u : 0u);
  PutU32(&blob, static_cast<uint32_t>(state.fold_watermarks.size()));
  PutU64(&blob, state.local_partials.size());
  PutU64(&blob, state.global_partials.size());
  for (uint64_t wm : state.fold_watermarks) PutU64(&blob, wm);
  blob.insert(blob.end(), state.local_partials.begin(),
              state.local_partials.end());
  blob.insert(blob.end(), state.global_partials.begin(),
              state.global_partials.end());
  return blob;
}

}  // namespace

CheckpointStore::CheckpointStore(int num_nodes, int page_size,
                                 DiskFactory factory)
    : page_size_(page_size) {
  nodes_.resize(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    nodes_[static_cast<size_t>(i)].disk =
        factory ? factory(i) : std::make_unique<SimDisk>(page_size);
  }
}

int64_t CheckpointStore::PagesFor(const CheckpointState& state) const {
  const size_t blob = kManifestFixedBytes + 8 * state.fold_watermarks.size() +
                      state.local_partials.size() +
                      state.global_partials.size();
  const size_t cap = static_cast<size_t>(page_size_) - kPageHeaderBytes;
  return static_cast<int64_t>((blob + cap - 1) / cap);
}

int64_t CheckpointStore::last_write_bytes(int node) const {
  if (node < 0 || node >= num_nodes()) return 0;
  return nodes_[static_cast<size_t>(node)].last_write_bytes;
}

Status CheckpointStore::Write(int node, const CheckpointState& state) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument("checkpoint node out of range: " +
                                   std::to_string(node));
  }
  NodeSlot& slot = nodes_[static_cast<size_t>(node)];
  const std::vector<uint8_t> blob = SerializeBlob(node, state);

  auto file_or = slot.disk->CreateFile(
      "ckpt_n" + std::to_string(node) + "_g" +
      std::to_string(slot.generation++));
  if (!file_or.ok()) return file_or.status();
  const FileId file = *file_or;

  const size_t cap = static_cast<size_t>(page_size_) - kPageHeaderBytes;
  std::vector<uint8_t> page(static_cast<size_t>(page_size_));
  int64_t pages = 0;
  for (size_t off = 0; off < blob.size(); off += cap) {
    const uint32_t used =
        static_cast<uint32_t>(std::min(cap, blob.size() - off));
    std::fill(page.begin(), page.end(), uint8_t{0});
    std::memcpy(page.data() + 4, &used, 4);
    std::memcpy(page.data() + kPageHeaderBytes, blob.data() + off, used);
    const uint32_t crc =
        Crc32c(0, page.data() + 4, static_cast<size_t>(page_size_) - 4);
    std::memcpy(page.data(), &crc, 4);
    Status st = slot.disk->AppendPage(file, page);
    if (!st.ok()) {
      // Abandon this generation; the previous checkpoint stays latest.
      (void)slot.disk->DeleteFile(file);  // best-effort space reclaim
      return st;
    }
    ++pages;
  }

  if (slot.latest >= 0) {
    (void)slot.disk->DeleteFile(slot.latest);  // superseded; best-effort
  }
  slot.latest = file;
  slot.latest_pages = pages;
  slot.last_write_bytes = static_cast<int64_t>(blob.size());
  return Status::OK();
}

bool CheckpointStore::Has(int node) const {
  if (node < 0 || node >= num_nodes()) return false;
  return nodes_[static_cast<size_t>(node)].latest >= 0;
}

void CheckpointStore::Drop(int node) {
  if (node < 0 || node >= num_nodes()) return;
  NodeSlot& slot = nodes_[static_cast<size_t>(node)];
  if (slot.latest >= 0) {
    (void)slot.disk->DeleteFile(slot.latest);  // best-effort
  }
  slot.latest = -1;
  slot.latest_pages = 0;
}

Result<CheckpointState> CheckpointStore::Load(int node) const {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument("checkpoint node out of range: " +
                                   std::to_string(node));
  }
  const NodeSlot& slot = nodes_[static_cast<size_t>(node)];
  if (slot.latest < 0) {
    return Status::NotFound("no checkpoint for node " + std::to_string(node));
  }

  std::vector<uint8_t> blob;
  std::vector<uint8_t> scratch;
  for (int64_t i = 0; i < slot.latest_pages; ++i) {
    Result<const uint8_t*> read = slot.disk->ReadPage(slot.latest, i, scratch);
    if (!read.ok()) {
      return Status::DataLoss("checkpoint page " + std::to_string(i) +
                              " of node " + std::to_string(node) +
                              " unreadable: " + read.status().message());
    }
    const uint8_t* page = *read;
    const uint32_t stored = GetU32(page);
    const uint32_t actual =
        Crc32c(0, page + 4, static_cast<size_t>(page_size_) - 4);
    if (stored != actual) {
      return Status::DataLoss(
          "checkpoint page " + std::to_string(i) + " of node " +
          std::to_string(node) +
          " failed CRC-32C (torn or corrupted write)");
    }
    const uint32_t used = GetU32(page + 4);
    if (used > static_cast<size_t>(page_size_) - kPageHeaderBytes) {
      return Status::DataLoss("checkpoint page " + std::to_string(i) +
                              " of node " + std::to_string(node) +
                              " has impossible payload length " +
                              std::to_string(used));
    }
    blob.insert(blob.end(), page + kPageHeaderBytes,
                page + kPageHeaderBytes + used);
  }

  if (blob.size() < kManifestFixedBytes) {
    return Status::DataLoss("checkpoint manifest of node " +
                            std::to_string(node) + " truncated: " +
                            std::to_string(blob.size()) + " bytes");
  }
  const uint8_t* p = blob.data();
  if (GetU64(p) != kCheckpointMagic) {
    return Status::DataLoss("checkpoint of node " + std::to_string(node) +
                            " has bad magic (torn manifest write)");
  }
  if (GetU32(p + 8) != kCheckpointVersion) {
    return Status::DataLoss("checkpoint of node " + std::to_string(node) +
                            " has unsupported version " +
                            std::to_string(GetU32(p + 8)));
  }
  if (GetU32(p + 12) != static_cast<uint32_t>(node)) {
    return Status::DataLoss("checkpoint of node " + std::to_string(node) +
                            " was written by node " +
                            std::to_string(GetU32(p + 12)));
  }
  CheckpointState state;
  state.scan_hwm = static_cast<int64_t>(GetU64(p + 16));
  state.scan_complete = GetU32(p + 24) != 0;
  const uint32_t num_peers = GetU32(p + 28);
  const uint64_t local_bytes = GetU64(p + 32);
  const uint64_t global_bytes = GetU64(p + 40);
  const uint64_t expected = kManifestFixedBytes +
                            8ull * num_peers + local_bytes + global_bytes;
  if (num_peers > (1u << 20) || blob.size() != expected) {
    return Status::DataLoss("checkpoint of node " + std::to_string(node) +
                            " is internally inconsistent: " +
                            std::to_string(blob.size()) + " bytes, expected " +
                            std::to_string(expected));
  }
  state.fold_watermarks.resize(num_peers);
  size_t off = kManifestFixedBytes;
  for (uint32_t i = 0; i < num_peers; ++i) {
    state.fold_watermarks[i] = GetU64(p + off);
    off += 8;
  }
  state.local_partials.assign(p + off, p + off + local_bytes);
  off += local_bytes;
  state.global_partials.assign(p + off, p + off + global_bytes);
  return state;
}

}  // namespace adaptagg
