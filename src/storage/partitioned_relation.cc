#include "storage/partitioned_relation.h"

namespace adaptagg {

Result<PartitionedRelation> PartitionedRelation::Create(Schema schema,
                                                        int num_nodes,
                                                        int page_size) {
  if (num_nodes <= 0) {
    return Status::InvalidArgument("num_nodes must be positive");
  }
  PartitionedRelation rel;
  rel.schema_ = std::make_unique<Schema>(std::move(schema));
  rel.disks_.reserve(static_cast<size_t>(num_nodes));
  rel.partitions_.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    rel.disks_.push_back(std::make_unique<SimDisk>(page_size));
    ADAPTAGG_ASSIGN_OR_RETURN(
        HeapFile hf, HeapFile::Create(rel.disks_.back().get(),
                                      rel.schema_.get(),
                                      "part" + std::to_string(i)));
    rel.partitions_.push_back(std::make_unique<HeapFile>(std::move(hf)));
  }
  return rel;
}

Result<PartitionedRelation> PartitionedRelation::CreateWithDisks(
    Schema schema, std::vector<std::unique_ptr<Disk>> disks) {
  if (disks.empty()) {
    return Status::InvalidArgument("need at least one disk");
  }
  for (const auto& d : disks) {
    if (d == nullptr) return Status::InvalidArgument("null disk");
    if (d->page_size() != disks[0]->page_size()) {
      return Status::InvalidArgument("disks must share a page size");
    }
  }
  PartitionedRelation rel;
  rel.schema_ = std::make_unique<Schema>(std::move(schema));
  rel.disks_ = std::move(disks);
  rel.partitions_.reserve(rel.disks_.size());
  for (size_t i = 0; i < rel.disks_.size(); ++i) {
    ADAPTAGG_ASSIGN_OR_RETURN(
        HeapFile hf, HeapFile::Create(rel.disks_[i].get(),
                                      rel.schema_.get(),
                                      "part" + std::to_string(i)));
    rel.partitions_.push_back(std::make_unique<HeapFile>(std::move(hf)));
  }
  return rel;
}

Status PartitionedRelation::Append(int node, const TupleView& tuple) {
  BumpVersion();
  return partitions_[node]->Append(tuple);
}

Status PartitionedRelation::Flush() {
  for (auto& p : partitions_) {
    ADAPTAGG_RETURN_IF_ERROR(p->Flush());
  }
  return Status::OK();
}

int64_t PartitionedRelation::total_tuples() const {
  int64_t total = 0;
  for (const auto& p : partitions_) total += p->num_tuples();
  return total;
}

void PartitionedRelation::ResetDiskStats() {
  for (auto& d : disks_) d->ResetStats();
}

}  // namespace adaptagg
