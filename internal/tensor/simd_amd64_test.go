package tensor

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestLeafTierMatchesCPUInfo holds detectTier to the kernel's view of the
// CPU: a wrong CPUID bit or XCR0 mask would leave every other test green
// on the narrower tier, with no speed-up. Linux lists a flag in
// /proc/cpuinfo only when the OS also enables its register state.
func TestLeafTierMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no /proc/cpuinfo off linux")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want := tierGeneric
	switch {
	case flags == nil:
		t.Skip("no flags line in /proc/cpuinfo")
	case flags["avx512f"]:
		want = tierAVX512
	case flags["avx2"] && flags["fma"]:
		want = tierAVX2
	default:
		t.Skip("neither avx512f nor avx2 and fma in /proc/cpuinfo")
	}
	if got := detectTier(); got != want {
		t.Fatalf("detected leaf tier %s, /proc/cpuinfo lists %s", tierNames[got], tierNames[want])
	}
}
