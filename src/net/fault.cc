#include "net/fault.h"

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <thread>

namespace adaptagg {

std::string_view FaultKindToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDuplicate:
      return "dup";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kStraggle:
      return "straggle";
    case FaultKind::kDiskFail:
      return "disk-fail";
    case FaultKind::kTornWrite:
      return "torn-write";
    case FaultKind::kHang:
      return "hang";
  }
  return "?";
}

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

Result<int64_t> ParseInt(std::string_view v) {
  int64_t out = 0;
  auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || ptr != v.data() + v.size()) {
    return Status::InvalidArgument("fault plan: bad integer '" +
                                   std::string(v) + "'");
  }
  return out;
}

Result<double> ParseFloat(std::string_view v) {
  // std::from_chars<double> is spotty across standard libraries; strtod
  // on a bounded copy is portable and exception-free.
  std::string buf(v);
  char* end = nullptr;
  double out = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    return Status::InvalidArgument("fault plan: bad number '" + buf + "'");
  }
  return out;
}

Result<FaultKind> ParseKind(std::string_view v) {
  if (v == "drop") return FaultKind::kDrop;
  if (v == "dup" || v == "duplicate") return FaultKind::kDuplicate;
  if (v == "delay") return FaultKind::kDelay;
  if (v == "corrupt") return FaultKind::kCorrupt;
  if (v == "crash") return FaultKind::kCrash;
  if (v == "straggle") return FaultKind::kStraggle;
  if (v == "disk-fail") return FaultKind::kDiskFail;
  if (v == "torn-write") return FaultKind::kTornWrite;
  if (v == "hang") return FaultKind::kHang;
  return Status::InvalidArgument("fault plan: unknown fault kind '" +
                                 std::string(v) + "'");
}

bool IsMessageFault(FaultKind kind) {
  return kind == FaultKind::kDrop || kind == FaultKind::kDuplicate ||
         kind == FaultKind::kDelay || kind == FaultKind::kCorrupt;
}

bool StopsNode(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kHang;
}

Status ParseClause(std::string_view clause, FaultPlan& plan) {
  const size_t colon = clause.find(':');
  if (colon == std::string_view::npos) {
    // Bare `seed=N` clause.
    if (clause.rfind("seed=", 0) == 0) {
      ADAPTAGG_ASSIGN_OR_RETURN(int64_t seed,
                                ParseInt(clause.substr(5)));
      plan.seed = static_cast<uint64_t>(seed);
      return Status::OK();
    }
    return Status::InvalidArgument("fault plan: clause '" +
                                   std::string(clause) +
                                   "' is not kind:key=value,...");
  }
  FaultSpec spec;
  ADAPTAGG_ASSIGN_OR_RETURN(spec.kind,
                            ParseKind(Trim(clause.substr(0, colon))));
  std::string_view rest = clause.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    std::string_view kv = Trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("fault plan: expected key=value, got '" +
                                     std::string(kv) + "'");
    }
    std::string_view key = kv.substr(0, eq);
    std::string_view val = kv.substr(eq + 1);
    if (key == "from") {
      ADAPTAGG_ASSIGN_OR_RETURN(int64_t v, ParseInt(val));
      spec.from = static_cast<int>(v);
    } else if (key == "to") {
      ADAPTAGG_ASSIGN_OR_RETURN(int64_t v, ParseInt(val));
      spec.to = static_cast<int>(v);
    } else if (key == "nth") {
      ADAPTAGG_ASSIGN_OR_RETURN(spec.nth, ParseInt(val));
    } else if (key == "node") {
      ADAPTAGG_ASSIGN_OR_RETURN(int64_t v, ParseInt(val));
      spec.node = static_cast<int>(v);
    } else if (key == "tuple") {
      ADAPTAGG_ASSIGN_OR_RETURN(spec.tuple, ParseInt(val));
    } else if (key == "phase") {
      spec.phase = std::string(val);
    } else if (key == "secs") {
      ADAPTAGG_ASSIGN_OR_RETURN(spec.secs, ParseFloat(val));
    } else if (key == "factor") {
      ADAPTAGG_ASSIGN_OR_RETURN(double f, ParseFloat(val));
      spec.secs = f * 1e-3;
    } else {
      return Status::InvalidArgument("fault plan: unknown key '" +
                                     std::string(key) + "'");
    }
  }
  if (IsMessageFault(spec.kind)) {
    if (spec.kind == FaultKind::kDelay && spec.secs <= 0) {
      return Status::InvalidArgument(
          "fault plan: delay needs secs>0 (or factor)");
    }
  } else {
    if (spec.node < 0) {
      return Status::InvalidArgument("fault plan: " +
                                     std::string(FaultKindToString(
                                         spec.kind)) +
                                     " needs node=<id>");
    }
    if (StopsNode(spec.kind) && spec.tuple < 0 && spec.phase.empty()) {
      return Status::InvalidArgument(
          "fault plan: " + std::string(FaultKindToString(spec.kind)) +
          " needs tuple=<index> or phase=<name>");
    }
    if (spec.kind == FaultKind::kStraggle && spec.secs <= 0) {
      return Status::InvalidArgument(
          "fault plan: straggle needs secs>0 (or factor)");
    }
  }
  plan.faults.push_back(std::move(spec));
  return Status::OK();
}

}  // namespace

const FaultSpec* FaultPlan::CrashForNode(int node) const {
  for (const FaultSpec& f : faults) {
    if (StopsNode(f.kind) && f.node == node) return &f;
  }
  return nullptr;
}

double FaultPlan::StraggleSecsForNode(int node) const {
  for (const FaultSpec& f : faults) {
    if (f.kind == FaultKind::kStraggle && f.node == node) return f.secs;
  }
  return 0;
}

int64_t FaultPlan::DiskFailNthForNode(int node) const {
  for (const FaultSpec& f : faults) {
    if (f.kind == FaultKind::kDiskFail && f.node == node) return f.nth;
  }
  return -1;
}

int64_t FaultPlan::TornWriteNthForNode(int node) const {
  for (const FaultSpec& f : faults) {
    if (f.kind == FaultKind::kTornWrite && f.node == node) return f.nth;
  }
  return -1;
}

bool FaultPlan::HasCheckpointDiskFaults() const {
  for (const FaultSpec& f : faults) {
    if (f.kind == FaultKind::kDiskFail || f.kind == FaultKind::kTornWrite) {
      return true;
    }
  }
  return false;
}

Result<FaultPlan> FaultPlan::Parse(const std::string& text) {
  FaultPlan plan;
  std::string_view rest = text;
  while (!rest.empty()) {
    const size_t semi = rest.find(';');
    std::string_view clause = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (clause.empty()) continue;
    ADAPTAGG_RETURN_IF_ERROR(ParseClause(clause, plan));
  }
  return plan;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& f : faults) {
    if (!out.empty()) out += ';';
    out += FaultKindToString(f.kind);
    out += ':';
    std::string args;
    auto add = [&args](const std::string& kv) {
      if (!args.empty()) args += ',';
      args += kv;
    };
    if (IsMessageFault(f.kind)) {
      if (f.from >= 0) add("from=" + std::to_string(f.from));
      if (f.to >= 0) add("to=" + std::to_string(f.to));
      add("nth=" + std::to_string(f.nth));
      if (f.kind == FaultKind::kDelay) {
        add("secs=" + std::to_string(f.secs));
      }
    } else {
      add("node=" + std::to_string(f.node));
      if (f.tuple >= 0) add("tuple=" + std::to_string(f.tuple));
      if (!f.phase.empty()) add("phase=" + f.phase);
      if (f.kind == FaultKind::kStraggle) {
        add("secs=" + std::to_string(f.secs));
      }
      if (f.kind == FaultKind::kDiskFail ||
          f.kind == FaultKind::kTornWrite) {
        add("nth=" + std::to_string(f.nth));
      }
    }
    out += args;
  }
  if (seed != 42) {
    if (!out.empty()) out += ';';
    out += "seed=" + std::to_string(seed);
  }
  return out;
}

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 const FaultPlan& plan,
                                 FaultObserver observer)
    : inner_(std::move(inner)),
      prng_state_(plan.seed * 0x9E3779B97F4A7C15ull + 1),
      observer_(std::move(observer)) {
  for (const FaultSpec& f : plan.faults) {
    if (IsMessageFault(f.kind) &&
        (f.from < 0 || f.from == inner_->node_id())) {
      send_faults_.push_back(ArmedFault{f, 0});
    }
  }
}

void FaultyTransport::Report(FaultKind kind, int peer) {
  if (observer_ != nullptr) {
    FaultEvent e;
    e.kind = kind;
    e.node = inner_->node_id();
    e.peer = peer;
    observer_(e);
  }
}

Status FaultyTransport::Send(int to, Message msg) {
  // Fail-stop: a crashed node reaches nobody, not even with aborts.
  if (dead_) return Status::OK();
  // Heartbeats and aborts are runtime traffic whose cadence depends on
  // wall time; exempting them keeps "the n-th message" deterministic
  // and keeps the detection machinery itself un-faultable.
  if (msg.type != MessageType::kHeartbeat &&
      msg.type != MessageType::kAbort) {
    for (ArmedFault& armed : send_faults_) {
      const FaultSpec& f = armed.spec;
      if (f.to >= 0 && f.to != to) continue;
      const int64_t index = armed.matched++;
      if (f.nth >= 0 && index != f.nth) continue;
      switch (f.kind) {
        case FaultKind::kDrop:
          Report(FaultKind::kDrop, to);
          return Status::OK();
        case FaultKind::kDuplicate: {
          Report(FaultKind::kDuplicate, to);
          Message copy = msg;
          ADAPTAGG_RETURN_IF_ERROR(inner_->Send(to, std::move(copy)));
          return inner_->Send(to, std::move(msg));
        }
        case FaultKind::kDelay: {
          Report(FaultKind::kDelay, to);
          // Sender-side, bounded, in-order: slows the link without
          // violating the transport's ordered-delivery contract.
          const double capped = f.secs < 1.0 ? f.secs : 1.0;
          std::this_thread::sleep_for(
              std::chrono::duration<double>(capped));
          return inner_->Send(to, std::move(msg));
        }
        case FaultKind::kCorrupt: {
          Report(FaultKind::kCorrupt, to);
          // Corrupt the serialized frame and re-parse it, exactly what
          // a flipped wire bit does. The CRC-32C covers every header
          // and payload byte, so the parse always fails and the frame
          // is discarded — a corrupt message is a detectable drop.
          msg.from = inner_->node_id();
          std::vector<uint8_t> frame = msg.Serialize();
          prng_state_ = prng_state_ * 6364136223846793005ull +
                        1442695040888963407ull;
          const size_t at =
              4 + static_cast<size_t>(prng_state_ >> 33) %
                      (frame.size() - 4);
          frame[at] ^= 0x80u >> (prng_state_ & 7);
          Result<Message> parsed =
              Message::Deserialize(frame.data() + 4, frame.size() - 4);
          if (!parsed.ok()) return Status::OK();
          return inner_->Send(to, std::move(parsed).value());
        }
        case FaultKind::kCrash:
        case FaultKind::kStraggle:
        case FaultKind::kDiskFail:
        case FaultKind::kTornWrite:
        case FaultKind::kHang:
          break;  // node/storage faults; never armed as send faults
      }
    }
  }
  return inner_->Send(to, std::move(msg));
}

}  // namespace adaptagg
