// Packet-switched stream communication (paper Fig. 1(b)).
//
// The PL sender packs each column into a packet whose header carries a
// destination id; AIE switches forward the packet to the tile registered
// for that id (dynamic forwarding). A ForwardingTable is the rule set the
// sender module programs (section III-C: odd/even columns of a block pair
// routed over four PLIOs to their orth-AIEs). The payload is the
// column's buffer token (versal/memory.hpp): its byte count sizes the
// wire transfer, its stamp travels with it.
#pragma once

#include <cstdint>
#include <map>

#include "common/assert.hpp"
#include "versal/geometry.hpp"
#include "versal/memory.hpp"

namespace hsvd::versal {

struct PacketHeader {
  std::uint32_t dest_id = 0;   // forwarding key
  std::uint32_t column = 0;    // column index of the payload
  std::uint32_t task = 0;      // batch task the column belongs to
};

struct Packet {
  PacketHeader header;
  Buffer payload;
  std::uint64_t bytes() const {
    // 128-bit header beat + payload words.
    return 16 + payload.bytes;
  }
};

class ForwardingTable {
 public:
  // Registers a destination tile for a forwarding key. A key can only be
  // bound once (the hardware analogue is a fixed packet-switch route).
  void bind(std::uint32_t dest_id, TileCoord tile);

  // dest_id -> tile; the Sender resolves it to array tile indices once.
  const std::map<std::uint32_t, TileCoord>& routes() const { return routes_; }

 private:
  std::map<std::uint32_t, TileCoord> routes_;
};

}  // namespace hsvd::versal
