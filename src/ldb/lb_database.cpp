#include "ldb/lb_database.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mdo::ldb {

double LbSnapshot::max_load() const {
  sim::TimeNs m = 0;
  for (auto l : pe_load) m = std::max(m, l);
  return static_cast<double>(m);
}

double LbSnapshot::avg_load() const {
  if (pe_load.empty()) return 0.0;
  double total = 0;
  for (auto l : pe_load) total += static_cast<double>(l);
  return total / static_cast<double>(pe_load.size());
}

double LbSnapshot::imbalance() const {
  double avg = avg_load();
  return avg > 0 ? max_load() / avg : 1.0;
}

LbSnapshot collect(core::Runtime& rt) {
  LbSnapshot snap;
  snap.num_pes = rt.num_pes();
  snap.topo = &rt.topology();
  snap.pe_load.assign(static_cast<std::size_t>(snap.num_pes), 0);
  for (std::size_t a = 0; a < rt.num_arrays(); ++a) {
    core::ArrayBase& arr = rt.array(static_cast<core::ArrayId>(a));
    for (const core::Index& index : arr.all_indices()) {
      const core::Chare& elem = *arr.find(index);
      ObjectRecord rec;
      rec.array = static_cast<core::ArrayId>(a);
      rec.index = index;
      rec.pe = arr.location(index);
      rec.load_ns = elem.load_ns();
      rec.msgs_sent = elem.msgs_sent();
      rec.bytes_sent = elem.bytes_sent();
      rec.wan_msgs = elem.wan_msgs_sent();
      rec.wan_bytes = elem.wan_bytes_sent();
      snap.pe_load[static_cast<std::size_t>(rec.pe)] += rec.load_ns;
      snap.objects.push_back(rec);
    }
  }
  return snap;
}

void reset_measurements(core::Runtime& rt) {
  for (std::size_t a = 0; a < rt.num_arrays(); ++a) {
    core::ArrayBase& arr = rt.array(static_cast<core::ArrayId>(a));
    arr.for_each([](const core::Index&, core::Chare& elem, core::Pe) {
      elem.reset_load_stats();
    });
  }
}

void apply(core::Runtime& rt, const std::vector<Move>& moves) {
  for (const Move& move : moves) {
    rt.migrate(move.array, move.index, move.to);
  }
}

}  // namespace mdo::ldb
