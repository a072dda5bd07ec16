/**
 * @file
 * Test completion sink: records every finished request and migration a
 * ChannelController (memory cycles) or DramSystem (ticks) reports, in
 * completion order.
 */

#ifndef DASDRAM_TESTS_DRAM_COMPLETION_RECORDER_HH
#define DASDRAM_TESTS_DRAM_COMPLETION_RECORDER_HH

#include <cstdint>
#include <vector>

#include "dram/controller.hh"

namespace dasdram
{

struct CompletionRecorder : CompletionSink
{
    struct Done
    {
        std::uint64_t id = 0;
        Cycle at = 0;
        ServiceLocation location = ServiceLocation::Unknown;
        bool operator==(const Done &) const = default;
    };

    std::vector<Done> requests;
    std::vector<Cycle> migrations;

    void
    onRequestDone(MemRequest &req, Cycle at) override
    {
        requests.push_back({req.id, at, req.location});
    }

    void
    onMigrationDone(const MigrationJob &, Cycle at) override
    {
        migrations.push_back(at);
    }
};

} // namespace dasdram

#endif // DASDRAM_TESTS_DRAM_COMPLETION_RECORDER_HH
