/**
 * @file
 * DDR3 timing parameters, expressed in memory-bus cycles (tCK = 1.25 ns),
 * with per-row-class core-array parameters for hybrid-bitline DRAM.
 */

#ifndef DASDRAM_DRAM_TIMING_HH
#define DASDRAM_DRAM_TIMING_HH

#include "common/types.hh"
#include "dram/row_class.hh"
#include "mem/clock.hh"

namespace dasdram
{

/**
 * Core-array (cell-array operation) timing of one subarray class.
 * These are the parameters bitline length affects (Section 3).
 */
struct ArrayTiming
{
    Cycle tRCD; ///< ACT → column command
    Cycle tRAS; ///< ACT → PRE
    Cycle tRP;  ///< PRE → ACT
    Cycle tRC;  ///< ACT → ACT (same bank); == tRAS + tRP
    Cycle tCL;  ///< RD → first data (CHARM also shortens this)

    /** Consistency check: tRC must equal tRAS + tRP. */
    bool consistent() const { return tRC == tRAS + tRP; }
};

/**
 * Full device timing: shared bus/peripheral parameters plus one
 * ArrayTiming per row class.
 */
struct DramTiming
{
    ArrayTiming slow; ///< commodity subarray (512-cell bitline)
    ArrayTiming fast; ///< short-bitline subarray (128-cell bitline)

    Cycle tCWL;  ///< WR → first data
    Cycle tBL;   ///< data burst length in bus cycles (BL8 → 4)
    Cycle tWR;   ///< end of write burst → PRE
    Cycle tWTR;  ///< end of write burst → RD (same rank)
    Cycle tRTP;  ///< RD → PRE
    Cycle tCCD;  ///< column command → column command
    Cycle tRRD;  ///< ACT → ACT (different banks, same rank)
    Cycle tFAW;  ///< window for at most four ACTs per rank
    Cycle tRTRS; ///< rank-to-rank data-bus switch penalty
    Cycle tRFC;  ///< refresh cycle time
    Cycle tREFI; ///< average refresh interval

    /**
     * Promotion swap latency: 3 tRC(slow) = 146.25 ns (Table 1). The
     * step model behind it (Section 4.2) is core/migration.hh.
     */
    Cycle swapCycles;

    const ArrayTiming &
    array(RowClass cls) const
    {
        return cls == RowClass::Fast ? fast : slow;
    }

    /** Read latency (RD issue to end of burst) for a row class. */
    Cycle
    readLatency(RowClass cls) const
    {
        return array(cls).tCL + tBL;
    }
};

/**
 * DDR3-1600 timing per Table 1 and the Samsung 2 Gb D-die datasheet,
 * with the fast subarray parameters from CHARM (tRCD 8.75 ns,
 * tRC 25 ns).
 *
 * @param charm_column_opt apply CHARM's optimised column access
 *        (reduced tCL) to the fast class.
 */
DramTiming ddr3_1600Timing(bool charm_column_opt = false);

} // namespace dasdram

#endif // DASDRAM_DRAM_TIMING_HH
