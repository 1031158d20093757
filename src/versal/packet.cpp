#include "versal/packet.hpp"

#include "common/format.hpp"

namespace hsvd::versal {

void ForwardingTable::bind(std::uint32_t dest_id, TileCoord tile) {
  auto [it, inserted] = routes_.insert({dest_id, tile});
  (void)it;
  HSVD_REQUIRE(inserted, cat("forwarding key ", dest_id, " already bound"));
}

}  // namespace hsvd::versal
