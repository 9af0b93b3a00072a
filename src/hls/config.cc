#include "hls/config.h"

namespace heterogen::hls {

const std::vector<DeviceSpec> &
knownDevices()
{
    static const std::vector<DeviceSpec> devices = {
        {"xcvu9p", 1182240, 2364480, 6840, 75900},
        {"xc7z020", 53200, 106400, 220, 4480},
        {"xcku115", 663360, 1326720, 5520, 75900},
    };
    return devices;
}

const DeviceSpec *
findDevice(const std::string &name)
{
    for (const DeviceSpec &d : knownDevices()) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

} // namespace heterogen::hls
