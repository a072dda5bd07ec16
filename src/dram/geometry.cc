#include "geometry.hh"

namespace dasdram
{

bool
DramGeometry::valid() const
{
    return isPowerOfTwo(channels) && isPowerOfTwo(ranksPerChannel) &&
           isPowerOfTwo(banksPerRank) && isPowerOfTwo(rowsPerBank) &&
           isPowerOfTwo(rowBytes) && isPowerOfTwo(lineBytes) &&
           lineBytes <= rowBytes;
}

// Every field is a power of two (AddressMapper refuses any other
// geometry), so the mixed-radix packing is shifts and masks, with no
// runtime division.

GlobalRowId
makeGlobalRowId(const DramGeometry &g, unsigned channel, unsigned rank,
                unsigned bank, std::uint64_t row)
{
    GlobalRowId id = channel;
    id = (id << log2Exact(g.ranksPerChannel)) + rank;
    id = (id << log2Exact(g.banksPerRank)) + bank;
    id = (id << log2Exact(g.rowsPerBank)) + row;
    return id;
}

DramLoc
decodeGlobalRowId(const DramGeometry &g, GlobalRowId id)
{
    DramLoc loc;
    loc.row = id & (g.rowsPerBank - 1);
    id >>= log2Exact(g.rowsPerBank);
    loc.bank = static_cast<unsigned>(id & (g.banksPerRank - 1));
    id >>= log2Exact(g.banksPerRank);
    loc.rank = static_cast<unsigned>(id & (g.ranksPerChannel - 1));
    id >>= log2Exact(g.ranksPerChannel);
    loc.channel = static_cast<unsigned>(id);
    return loc;
}

} // namespace dasdram
