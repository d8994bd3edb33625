// Backscatter impedance switch network (§3.2.3, Fig. 7).
//
// A backscatter transmitter conveys bits by toggling its antenna between
// two impedances Z0 and Z1; the radiated power gain is
//     Gain = |Γ0 - Γ1|^2 / 4,   Γ = (Z - Z_ant) / (Z + Z_ant).
// Classic designs switch 0 <-> inf for |(-1) - 1|^2/4 = 1 (0 dB). NetScatter
// instead switches from intermediate Z0 values to realize multiple power
// levels — the hardware implements 0, -4 and -10 dB (Fig. 16) with a
// cascade of RF switches (Fig. 7b). We model the same physics with real
// impedances (reactive parts omitted; they only rotate Γ's phase, which
// the magnitude-based gain does not see).
#pragma once

#include <array>
#include <cstddef>

namespace ns::device {

/// Antenna reference impedance (ohms).
inline constexpr double antenna_impedance_ohm = 50.0;

/// Reflection coefficient Γ = (Z - Z_ant)/(Z + Z_ant) for a real load.
/// An open circuit (Z = +inf) is represented by Γ = +1; pass
/// std::numeric_limits<double>::infinity().
double reflection_coefficient(double impedance_ohm,
                              double reference_ohm = antenna_impedance_ohm);

/// Backscatter power gain |Γ0 - Γ1|^2 / 4 (linear) for switching between
/// loads Z0 and Z1.
double backscatter_power_gain(double z0_ohm, double z1_ohm,
                              double reference_ohm = antenna_impedance_ohm);

/// Same, in dB (relative to the 0 dB maximum of a 0 <-> inf switch).
double backscatter_power_gain_db(double z0_ohm, double z1_ohm,
                                 double reference_ohm = antenna_impedance_ohm);

/// Finds the real Z0 (with Z1 = inf) that realizes `target_gain_db`
/// (<= 0). Closed form: |Γ0 - 1| = 2*sqrt(gain) with Γ0 = (Z0-50)/(Z0+50).
double z0_for_gain_db(double target_gain_db,
                      double reference_ohm = antenna_impedance_ohm);

/// One selectable power level of the switch network: its gain and the
/// Z0 that realizes it with Z1 an open circuit (z0_ohm is exactly
/// z0_for_gain_db(gain_db); a test pins the literals to it).
struct gain_level {
    double gain_db;
    double z0_ohm;
};

/// The three power levels of the NetScatter hardware, strongest first:
/// 0, -4 and -10 dB (Fig. 16).
inline constexpr std::array<gain_level, 3> hardware_gain_levels{{
    {0.0, 0.0},
    {-4.0, 29.244659623055671},
    {-10.0, 108.11388300841897},
}};

/// The switch network's level table (§3.2.3, Fig. 7b). Level 0 is the
/// strongest; the table is a compile-time constant, so the network
/// carries no state.
class switch_network {
public:
    /// Number of selectable power levels.
    static constexpr std::size_t num_levels() { return hardware_gain_levels.size(); }

    /// Gain of level `index` in dB (level 0 is the strongest).
    static double gain_db(std::size_t index);

    /// Impedance Z0 used for level `index` (Z1 is an open circuit).
    static double z0_ohm(std::size_t index);

    /// Index of the strongest level (maximum gain).
    static constexpr std::size_t max_level() { return 0; }

    /// Index of the middle level (the association default for high-RSSI
    /// devices, §3.2.3).
    static constexpr std::size_t middle_level() { return num_levels() / 2; }

    /// Index whose gain is closest to `target_db`.
    static std::size_t nearest_level(double target_db);
};

}  // namespace ns::device
