// Paper reference values, copied from EXPERIMENTS.md, with provenance.
//
// `calibration` marks values the cost model was fitted to: DESIGN.md §6
// says every cycle cost "was calibrated once against Table I", and the
// Table I notes say the calibration traded exit rate for the TIG of that
// same cell (Fig. 5 send-TCP Baseline). Everything else is held back: it
// never informed a cost, so its error is the honest accuracy figure.
#pragma once

namespace perfbench {

enum class RefQuantity {
  kExitsDelivery,    // interrupt delivery exits/s (tested VM)
  kExitsCompletion,  // interrupt completion (APIC access) exits/s
  kExitsIo,          // guest I/O request exits/s
  kExitsOther,       // all other exits/s
  kTigPct,           // time in guest, percent
  kGoodputRatio,     // PI+H+R goodput / Baseline goodput on the scenario
};

struct PaperRef {
  const char* source;  // where EXPERIMENTS.md records it
  const char* cell;    // benchmark cell ("<scenario>/<stack>") or scenario
  RefQuantity quantity;
  double value;
  bool lower_bound;  // the paper gives "above <value>", not a point
  bool calibration;
};

/// micro_stream: Table I (netperf TCP send, 1 KB) and the Fig. 5 TIG
/// endpoints for the directions the workload runs.
inline constexpr PaperRef kMicroRefs[] = {
    {"Table I", "tcp_send/baseline", RefQuantity::kExitsDelivery, 20258, false, true},
    {"Table I", "tcp_send/baseline", RefQuantity::kExitsCompletion, 38388, false, true},
    {"Table I", "tcp_send/baseline", RefQuantity::kExitsIo, 70082, false, true},
    {"Table I", "tcp_send/baseline", RefQuantity::kExitsOther, 2112, false, true},
    {"Table I", "tcp_send/pi", RefQuantity::kExitsDelivery, 0, false, true},
    {"Table I", "tcp_send/pi", RefQuantity::kExitsCompletion, 0, false, true},
    {"Table I", "tcp_send/pi", RefQuantity::kExitsIo, 85018, false, true},
    {"Table I", "tcp_send/pi", RefQuantity::kExitsOther, 964, false, true},
    {"Fig. 5", "tcp_send/baseline", RefQuantity::kTigPct, 70.0, false, true},
    {"Fig. 5", "tcp_send/pi_h", RefQuantity::kTigPct, 97.5, false, false},
    {"Fig. 5", "udp_recv/pi_h", RefQuantity::kTigPct, 99.0, true, false},
};

/// macro_stream: the Fig. 6 1 KB stream gains EXPERIMENTS.md quotes for
/// the paper ("~2x total" on send, "up to +50%" on receive). Both sit in
/// the documented macro deviation; none was used for calibration.
inline constexpr PaperRef kMacroRefs[] = {
    {"Fig. 6", "tcp_send", RefQuantity::kGoodputRatio, 2.0, false, false},
    {"Fig. 6", "tcp_recv", RefQuantity::kGoodputRatio, 1.5, false, false},
};

}  // namespace perfbench
