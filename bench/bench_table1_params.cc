// Reproduces Table 1: the parameters of the analytical models, plus the
// derived per-operation times in seconds.

#include "bench_util.h"

namespace adaptagg {
namespace bench {
namespace {

void Run() {
  SystemParams p = SystemParams::Paper32();
  PrintHeader("Table 1", "Parameters for the Analytical Models",
              p.ToString());

  TablePrinter table({"Sym", "Description", "Value", "Derived time"});
  table.AddRow({"N", "number of processors", FmtInt(p.num_nodes), ""});
  table.AddRow({"mips", "MIPS of the processor", FmtSeconds(p.mips), ""});
  table.AddRow({"R", "size of relation",
                FmtInt(static_cast<int64_t>(p.relation_bytes() / 1e6)) +
                    " MB",
                ""});
  table.AddRow({"|R|", "number of tuples in R", FmtInt(p.num_tuples), ""});
  table.AddRow({"|R_i|", "tuples on node i",
                FmtInt(static_cast<int64_t>(p.tuples_per_node())), ""});
  table.AddRow({"P", "page size", FmtInt(p.page_bytes) + " B", ""});
  table.AddRow({"IO", "time to read a page (seq.)",
                FmtSeconds(p.io_seq_s * 1e3) + " ms", ""});
  table.AddRow({"rIO", "time to read a random page",
                FmtSeconds(p.io_rand_s * 1e3) + " ms", ""});
  table.AddRow({"p", "projectivity of aggregation",
                FmtSeconds(p.projectivity * 100) + " %", ""});
  table.AddRow({"t_r", "time to read a tuple",
                FmtInt(static_cast<int64_t>(p.instr_read_tuple)) + "/mips",
                FmtSci(p.t_r()) + " s"});
  table.AddRow({"t_w", "time to write a tuple",
                FmtInt(static_cast<int64_t>(p.instr_write_tuple)) + "/mips",
                FmtSci(p.t_w()) + " s"});
  table.AddRow({"t_h", "time to compute hash value",
                FmtInt(static_cast<int64_t>(p.instr_hash)) + "/mips",
                FmtSci(p.t_h()) + " s"});
  table.AddRow({"t_a", "time to process a tuple",
                FmtInt(static_cast<int64_t>(p.instr_agg)) + "/mips",
                FmtSci(p.t_a()) + " s"});
  table.AddRow({"S", "GROUP BY selectivity",
                "1/|R| .. 0.5", ""});
  table.AddRow({"t_d", "time to compute destination",
                FmtInt(static_cast<int64_t>(p.instr_dest)) + "/mips",
                FmtSci(p.t_d()) + " s"});
  table.AddRow({"m_p", "message protocol cost/page",
                FmtInt(static_cast<int64_t>(p.instr_msg_per_page)) +
                    "/mips",
                FmtSci(p.m_p()) + " s"});
  table.AddRow({"m_l", "time to send a page",
                FmtSeconds(p.m_l() * 1e3) + " ms", ""});
  table.AddRow({"M", "default max. hash table size",
                FmtInt(p.max_hash_entries) + " entries", ""});
  table.Print();

  std::printf("\nDerived selectivity identities (DESIGN.md note):\n");
  TablePrinter ids({"S", "S_l = min(S*N,1)", "S_g = max(1/N,S)",
                    "S_l * S_g"});
  for (double s : {1.25e-7, 1e-5, 1e-3, 0.03125, 0.25}) {
    double sl = std::min(s * p.num_nodes, 1.0);
    double sg = std::max(1.0 / p.num_nodes, s);
    ids.AddRow({FmtSci(s), FmtSci(sl), FmtSci(sg), FmtSci(sl * sg)});
  }
  ids.Print();
}

}  // namespace
}  // namespace bench
}  // namespace adaptagg

int main() {
  adaptagg::bench::Run();
  return 0;
}
