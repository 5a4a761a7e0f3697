#include "core/cpu_features.hh"

namespace vpred
{

namespace
{

/**
 * Whether the running CPU can execute AVX2. Only meaningful when the
 * AVX2 translation unit was compiled in (VPRED_HAS_AVX2_KERNEL); the
 * compiler builtin performs the CPUID probe once per process.
 */
bool
cpuHasAvx2()
{
#if defined(VPRED_HAS_AVX2_KERNEL) && (defined(__x86_64__) || defined(__i386__))
    static const bool has = __builtin_cpu_supports("avx2") > 0;
    return has;
#else
    return false;
#endif
}

std::vector<SimdBackend>
probeBackends()
{
    std::vector<SimdBackend> backends = {SimdBackend::Scalar};
    if (cpuHasAvx2())
        backends.push_back(SimdBackend::Avx2);
    return backends;
}

} // namespace

const char*
simdBackendName(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::Scalar: return "scalar";
      case SimdBackend::Avx2: return "avx2";
    }
    return "unknown";
}

unsigned
simdVectorBits(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::Scalar: return 64;
      case SimdBackend::Avx2: return 256;
    }
    return 0;
}

const std::vector<SimdBackend>&
availableSimdBackends()
{
    static const std::vector<SimdBackend> backends = probeBackends();
    return backends;
}

bool
simdBackendAvailable(SimdBackend backend)
{
    for (SimdBackend b : availableSimdBackends())
        if (b == backend)
            return true;
    return false;
}

SimdBackend
bestSimdBackend()
{
    return availableSimdBackends().back();
}

} // namespace vpred
