/**
 * @file
 * Toolchain configuration: top function, clock, target device.
 */

#ifndef HETEROGEN_HLS_CONFIG_H
#define HETEROGEN_HLS_CONFIG_H

#include <string>
#include <vector>

namespace heterogen::hls {

/** Resource capacities of one FPGA part. */
struct DeviceSpec
{
    std::string name;
    long luts = 0;
    long ffs = 0;
    long dsps = 0;
    long bram_kb = 0;
};

/** Known parts; index 0 is the default (Virtex UltraScale+ XCVU9P). */
const std::vector<DeviceSpec> &knownDevices();

/** Lookup by name; nullptr if unknown. */
const DeviceSpec *findDevice(const std::string &name);

/** Hard bounds on a FIFO depth the simulated toolchain accepts. */
constexpr long kMinStreamDepth = 1;
constexpr long kMaxStreamDepth = 1024;

/** Configuration handed to the simulated HLS toolchain. */
struct HlsConfig
{
    /** Module entry point; must name a function in the design. */
    std::string top_function;
    /** Target clock in MHz; synthesizable range is [50, 500]. */
    double clock_mhz = 250.0;
    /** Target part name. */
    std::string device = "xcvu9p";
    /**
     * Default FIFO depth for `hls::stream` channels that carry no
     * explicit `#pragma HLS stream ... depth=N` directive. Part of the
     * candidate fingerprint (two candidates differing only here must
     * never share a cached verdict). Valid range is [kMinStreamDepth,
     * kMaxStreamDepth] — validated by core::validateOptions.
     */
    long stream_depth = 2;

    static HlsConfig
    forTop(std::string top)
    {
        HlsConfig c;
        c.top_function = std::move(top);
        return c;
    }
};

} // namespace heterogen::hls

#endif // HETEROGEN_HLS_CONFIG_H
