#include "request.hh"

#include "mem/request_trace.hh"

namespace dasdram
{

MemRequest::MemRequest() = default;

MemRequest::MemRequest(Addr a, bool write, int core)
    : addr(a), isWrite(write), coreId(core)
{}

MemRequest::MemRequest(MemRequest &&) noexcept = default;
MemRequest &MemRequest::operator=(MemRequest &&) noexcept = default;
MemRequest::~MemRequest() = default;

void
MemRequest::serdeState(Archive &ar)
{
    ar.section("req");
    ar.io(id);
    ar.io(addr);
    ar.io(isWrite);
    ar.io(coreId);
    ar.io(arrivalTick);
    ar.io(readyTick);
    ar.io(completionTick);
    ar.io(isTableAccess);
    ar.io(loc.channel);
    ar.io(loc.rank);
    ar.io(loc.bank);
    ar.io(loc.row);
    ar.io(loc.column);
    ar.io(logicalRow);
    ar.io(location);
    ar.io(servicedFast);
    cont.serdeState(ar);
    bool has_span = span != nullptr;
    ar.io(has_span);
    if (has_span) {
        if (ar.loading() && !span)
            span = std::make_unique<RequestSpan>();
        span->serdeState(ar);
    } else if (ar.loading()) {
        span.reset();
    }
    ar.end();
}

const char *
toString(ServiceLocation loc)
{
    switch (loc) {
      case ServiceLocation::Unknown:
        return "unknown";
      case ServiceLocation::RowBuffer:
        return "row-buffer";
      case ServiceLocation::FastLevel:
        return "fast-level";
      case ServiceLocation::SlowLevel:
        return "slow-level";
    }
    return "invalid";
}

} // namespace dasdram
