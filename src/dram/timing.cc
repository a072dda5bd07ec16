#include "timing.hh"

#include "common/log.hh"

namespace dasdram
{

DramTiming
ddr3_1600Timing(bool charm_column_opt)
{
    DramTiming t{};

    // Commodity (slow) subarray: Table 1 / Samsung 2Gb D-die DDR3-1600.
    t.slow.tRCD = nsToMemCycles(13.75); // 11
    t.slow.tRAS = nsToMemCycles(35.0);  // 28
    t.slow.tRP = nsToMemCycles(13.75);  // 11
    t.slow.tRC = t.slow.tRAS + t.slow.tRP; // 39 cycles = 48.75 ns
    t.slow.tCL = nsToMemCycles(13.75);  // 11

    // Fast subarray: CHARM 128-cell bitline figures used by the paper
    // (tRCD 8.75 ns, tRC 25 ns). The tRAS/tRP split keeps the documented
    // tRC; sensing and precharge both shrink with the shorter bitline.
    t.fast.tRCD = nsToMemCycles(8.75);  // 7
    t.fast.tRAS = nsToMemCycles(13.75); // 11
    t.fast.tRP = nsToMemCycles(11.25);  // 9
    t.fast.tRC = t.fast.tRAS + t.fast.tRP; // 20 cycles = 25 ns
    // Column access is unchanged by bitline length; CHARM additionally
    // optimises the column path of fast subarrays.
    t.fast.tCL = charm_column_opt ? nsToMemCycles(12.5) : t.slow.tCL;

    t.tCWL = nsToMemCycles(10.0); // 8
    t.tBL = 4;                    // BL8 at DDR
    t.tWR = nsToMemCycles(15.0);  // 12
    t.tWTR = nsToMemCycles(7.5);  // 6
    t.tRTP = nsToMemCycles(7.5);  // 6
    t.tCCD = 4;
    t.tRRD = nsToMemCycles(7.5);  // 6 (2 KB page size part)
    t.tFAW = nsToMemCycles(40.0); // 32
    t.tRTRS = 2;
    t.tRFC = nsToMemCycles(160.0);   // 128 (2 Gb device)
    t.tREFI = nsToMemCycles(7800.0); // 6240

    // Section 4.2: a row migration is 2 activate+restore steps with the
    // restore (tRAS) tightened because the migration row is read right
    // back out, giving ~1.5 tRC per migration. A promotion swap
    // (Figure 6) overlaps the two directions and totals 3 tRC(slow) =
    // 146.25 ns, which Table 1 lists as the migration latency.
    t.swapCycles = 3 * t.slow.tRC; // 117 cyc = 146.25 ns

    if (!t.slow.consistent() || !t.fast.consistent())
        panic("inconsistent DDR3 array timing");
    return t;
}

} // namespace dasdram
