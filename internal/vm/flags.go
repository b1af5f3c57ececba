package vm

import "faultsec/internal/x86"

// statusFlags are the six arithmetic status flags rewritten wholesale by
// ADD/SUB-family retirements.
const statusFlags = x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF | x86.FlagSF | x86.FlagOF

// parityEven[b] is true when byte b has an even number of set bits (PF=1).
var parityEven = computeParityTable()

func computeParityTable() [256]bool {
	var t [256]bool
	for i := range t {
		ones := 0
		for b := i; b != 0; b >>= 1 {
			ones += b & 1
		}
		t[i] = ones%2 == 0
	}
	return t
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (m *Machine) setFlag(f uint32, on bool) {
	if on {
		m.Flags |= f
	} else {
		m.Flags &^= f
	}
}

// GetFlag reports whether flag f is set.
func (m *Machine) GetFlag(f uint32) bool { return m.Flags&f != 0 }

// The flag-computation core is parameterized on the precomputed width mask
// and sign bit (the *MS variants) so micro-op handlers, whose Uop carries
// both from bind time, pay no per-retirement width switch. The width-based
// wrappers (setSZP, subFlags) derive mask and sign bit via the shared x86
// helpers for the slow paths that carry only a width.

// szpBits returns the SF/ZF/PF bits for a masked result — the *MS cores
// accumulate the status word locally and merge into m.Flags once, instead
// of six separate read-modify-writes per ALU retirement.
func szpBits(v, sb uint32) uint32 {
	var fl uint32
	if v == 0 {
		fl |= x86.FlagZF
	}
	if v&sb != 0 {
		fl |= x86.FlagSF
	}
	if parityEven[byte(v)] {
		fl |= x86.FlagPF
	}
	return fl
}

// setSZPMS sets the sign, zero and parity flags from a result under the
// given width mask and sign bit.
func (m *Machine) setSZPMS(v, mask, sb uint32) {
	m.Flags = m.Flags&^(x86.FlagZF|x86.FlagSF|x86.FlagPF) | szpBits(v&mask, sb)
}

// setSZP sets the sign, zero and parity flags from a result of width w.
func (m *Machine) setSZP(v uint32, w uint8) {
	m.setSZPMS(v, x86.WidthMask(w), x86.SignBit(w))
}

// addFlagsMS computes a+b+carry under the given mask/sign bit, sets
// CF/OF/AF/SF/ZF/PF, and returns the masked result.
func (m *Machine) addFlagsMS(a, b, carry, mask, sb uint32) uint32 {
	a &= mask
	b &= mask
	r64 := uint64(a) + uint64(b) + uint64(carry)
	r := uint32(r64) & mask
	fl := szpBits(r, sb)
	if r64 > uint64(mask) {
		fl |= x86.FlagCF
	}
	if (a^r)&(b^r)&sb != 0 {
		fl |= x86.FlagOF
	}
	if (a^b^r)&0x10 != 0 {
		fl |= x86.FlagAF
	}
	m.Flags = m.Flags&^statusFlags | fl
	return r
}

// subFlagsMS computes a-b-borrow under the given mask/sign bit, sets
// CF/OF/AF/SF/ZF/PF, and returns the masked result.
func (m *Machine) subFlagsMS(a, b, borrow, mask, sb uint32) uint32 {
	a &= mask
	b &= mask
	r64 := uint64(a) - uint64(b) - uint64(borrow)
	r := uint32(r64) & mask
	fl := szpBits(r, sb)
	if uint64(a) < uint64(b)+uint64(borrow) {
		fl |= x86.FlagCF
	}
	if (a^b)&(a^r)&sb != 0 {
		fl |= x86.FlagOF
	}
	if (a^b^r)&0x10 != 0 {
		fl |= x86.FlagAF
	}
	m.Flags = m.Flags&^statusFlags | fl
	return r
}

// subFlags computes a-b-borrow at width w, sets CF/OF/AF/SF/ZF/PF, and
// returns the masked result.
func (m *Machine) subFlags(a, b, borrow uint32, w uint8) uint32 {
	return m.subFlagsMS(a, b, borrow, x86.WidthMask(w), x86.SignBit(w))
}

// logicFlagsMS clears CF/OF, sets SF/ZF/PF from v under the given
// mask/sign bit, and returns the masked result (the AND/OR/XOR/TEST flag
// rule).
func (m *Machine) logicFlagsMS(v, mask, sb uint32) uint32 {
	v &= mask
	m.Flags = m.Flags&^(x86.FlagCF|x86.FlagOF|x86.FlagZF|x86.FlagSF|x86.FlagPF) | szpBits(v, sb)
	return v
}

// incFlagsMS computes v+1 preserving CF (INC semantics).
func (m *Machine) incFlagsMS(v, mask, sb uint32) uint32 {
	cf := m.GetFlag(x86.FlagCF)
	r := m.addFlagsMS(v, 1, 0, mask, sb)
	m.setFlag(x86.FlagCF, cf)
	return r
}

// decFlagsMS computes v-1 preserving CF (DEC semantics).
func (m *Machine) decFlagsMS(v, mask, sb uint32) uint32 {
	cf := m.GetFlag(x86.FlagCF)
	r := m.subFlagsMS(v, 1, 0, mask, sb)
	m.setFlag(x86.FlagCF, cf)
	return r
}
