/**
 * @file
 * DRAM system geometry (channels/ranks/banks/rows/columns) and the
 * decoded location of a cache-line request.
 */

#ifndef DASDRAM_DRAM_GEOMETRY_HH
#define DASDRAM_DRAM_GEOMETRY_HH

#include <cstdint>

#include "common/bitutil.hh"
#include "common/types.hh"

namespace dasdram
{

/**
 * Physical organisation of the memory system. Defaults follow Table 1:
 * two 4 GB DDR3-1600 DIMMs, 2 channels, 2 ranks per channel, 8 banks per
 * rank, 8 KB rows, 64 B cache lines.
 */
struct DramGeometry
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    std::uint64_t rowsPerBank = 32 * 1024; ///< 256 MB per bank
    std::uint64_t rowBytes = 8 * KiB;      ///< row-buffer size per bank
    std::uint64_t lineBytes = 64;

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(channels) * ranksPerChannel *
               banksPerRank * rowsPerBank * rowBytes;
    }

    /** Total number of DRAM rows across the system. */
    std::uint64_t
    totalRows() const
    {
        return static_cast<std::uint64_t>(channels) * ranksPerChannel *
               banksPerRank * rowsPerBank;
    }

    /** Number of banks across the system. */
    unsigned
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Cache lines per row. */
    std::uint64_t
    linesPerRow() const
    {
        return rowBytes / lineBytes;
    }

    /** True iff all fields are powers of two (required by the mapper). */
    bool valid() const;
};

/** Decoded per-request DRAM coordinates. */
struct DramLoc
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t column = 0; ///< line-sized column index within the row

    bool
    sameBank(const DramLoc &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank;
    }

    bool
    sameRow(const DramLoc &o) const
    {
        return sameBank(o) && row == o.row;
    }
};

/**
 * Flat identifier of a (channel, rank, bank, row) tuple, used as the
 * logical-row key of the DAS translation table.
 */
using GlobalRowId = std::uint64_t;

/** Compose a GlobalRowId; row is the bank-local row index.
 *  @pre g.valid() (power-of-two geometry). */
GlobalRowId makeGlobalRowId(const DramGeometry &g, unsigned channel,
                            unsigned rank, unsigned bank,
                            std::uint64_t row);

/** Decompose a GlobalRowId back into coordinates (column = 0).
 *  @pre g.valid() (power-of-two geometry). */
DramLoc decodeGlobalRowId(const DramGeometry &g, GlobalRowId id);

} // namespace dasdram

#endif // DASDRAM_DRAM_GEOMETRY_HH
