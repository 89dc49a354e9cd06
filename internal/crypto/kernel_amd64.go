//go:build amd64 && !purego

package crypto

// blockSHANI absorbs the whole 64-byte blocks of p into the SHA-256
// state dig with the SHA extensions (sha256block_amd64.s).
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

// cpuid and xgetbv are the CPU feature probes of cpu_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// haveKernel reports whether this CPU runs blockSHANI: SHA, SSE4.1,
// SSSE3 and AVX, the last with its register state enabled by the OS.
var haveKernel = hasSHANI()

func hasSHANI() bool {
	const (
		ssse3   = 1 << 9  // CPUID.1:ECX
		sse41   = 1 << 19 // CPUID.1:ECX
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		sha     = 1 << 29 // CPUID.(7,0):EBX
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(ssse3|sse41|osxsave|avx) != ssse3|sse41|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 { // XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&sha != 0
}

func block(h *[8]uint32, p []byte) { blockSHANI(h, p) }
