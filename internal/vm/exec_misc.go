package vm

import "faultsec/internal/x86"

// Flag, convert, string and miscellaneous micro-op handlers.

func uNop(m *Machine, u *x86.Uop) error { return nil }

func uCbw(m *Machine, u *x86.Uop) error {
	// cbw: ax = sext(al)
	m.regWrite(x86.EAX, 2, uint32(int32(int8(m.Regs[x86.EAX]))))
	return nil
}

func uCwde(m *Machine, u *x86.Uop) error {
	// cwde: eax = sext(ax)
	m.Regs[x86.EAX] = uint32(int32(int16(m.Regs[x86.EAX])))
	return nil
}

func uCwd(m *Machine, u *x86.Uop) error {
	// cwd: dx = sign(ax)
	s := uint32(0)
	if m.Regs[x86.EAX]&0x8000 != 0 {
		s = 0xFFFF
	}
	m.regWrite(x86.EDX, 2, s)
	return nil
}

func uCdq(m *Machine, u *x86.Uop) error {
	// cdq: edx = sign(eax)
	s := uint32(0)
	if m.Regs[x86.EAX]&0x80000000 != 0 {
		s = 0xFFFFFFFF
	}
	m.Regs[x86.EDX] = s
	return nil
}

func uClc(m *Machine, u *x86.Uop) error {
	m.setFlag(x86.FlagCF, false)
	return nil
}

func uStc(m *Machine, u *x86.Uop) error {
	m.setFlag(x86.FlagCF, true)
	return nil
}

func uCmc(m *Machine, u *x86.Uop) error {
	m.setFlag(x86.FlagCF, !m.GetFlag(x86.FlagCF))
	return nil
}

func uCld(m *Machine, u *x86.Uop) error {
	m.setFlag(x86.FlagDF, false)
	return nil
}

func uStd(m *Machine, u *x86.Uop) error {
	m.setFlag(x86.FlagDF, true)
	return nil
}

func uSahf(m *Machine, u *x86.Uop) error {
	const mask = x86.FlagCF | x86.FlagPF | x86.FlagAF | x86.FlagZF | x86.FlagSF
	m.Flags = m.Flags&^mask | (m.Regs[x86.EAX]>>8)&mask
	return nil
}

func uLahf(m *Machine, u *x86.Uop) error {
	m.regWrite(4, 1, m.Flags&0xFF|0x2) // AH (reg 4 at width 1)
	return nil
}

func uSalc(m *Machine, u *x86.Uop) error {
	v := uint32(0)
	if m.GetFlag(x86.FlagCF) {
		v = 0xFF
	}
	m.regWrite(x86.EAX, 1, v)
	return nil
}

func uXlat(m *Machine, u *x86.Uop) error {
	v, f := m.Mem.Read8(m.Regs[x86.EBX] + m.Regs[x86.EAX]&0xFF)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.regWrite(x86.EAX, 1, v)
	return nil
}

func uString(m *Machine, u *x86.Uop) error {
	return m.stringOp(x86.Op(u.Aux), u.W, u.Rep)
}

func uRdtsc(m *Machine, u *x86.Uop) error {
	m.Regs[x86.EAX] = uint32(m.TSC)
	m.Regs[x86.EDX] = uint32(m.TSC >> 32)
	return nil
}

func uCpuid(m *Machine, u *x86.Uop) error {
	m.Regs[x86.EAX] = 0
	m.Regs[x86.EBX] = 0
	m.Regs[x86.ECX] = 0
	m.Regs[x86.EDX] = 0
	return nil
}

func uPrivileged(m *Machine, u *x86.Uop) error {
	return m.uopFault(FaultPrivileged, m.pc)
}

// uUD is the bound-but-unhandled case: exactly the legacy switch's default
// arm. It also backs UInvalid so a zero-valued micro-op faults instead of
// dispatching through a nil table entry.
func uUD(m *Machine, u *x86.Uop) error {
	return m.uopFault(FaultUndefined, m.pc)
}

// stringOp implements the string instruction family, honouring REP
// prefixes. Each REP iteration counts as one retired instruction, matching
// hardware retirement semantics closely enough for the latency histograms.
// Faults are stamped with m.pc; shared by the micro-op handler and the
// legacy switch.
func (m *Machine) stringOp(op x86.Op, iw uint8, rep uint8) error {
	w := uint32(iw)
	if iw == 0 {
		w = 4
	}
	delta := w
	if m.GetFlag(x86.FlagDF) {
		delta = uint32(-int32(w))
	}
	one := func() (bool, error) {
		switch op {
		case x86.OpMovs:
			v, f := m.Mem.ReadW(m.Regs[x86.ESI], iw)
			if f != nil {
				return false, m.uopMemFault(f)
			}
			if f := m.Mem.WriteW(m.Regs[x86.EDI], v, iw); f != nil {
				return false, m.uopMemFault(f)
			}
			m.Regs[x86.ESI] += delta
			m.Regs[x86.EDI] += delta
		case x86.OpStos:
			if f := m.Mem.WriteW(m.Regs[x86.EDI], m.regRead(x86.EAX, iw), iw); f != nil {
				return false, m.uopMemFault(f)
			}
			m.Regs[x86.EDI] += delta
		case x86.OpLods:
			v, f := m.Mem.ReadW(m.Regs[x86.ESI], iw)
			if f != nil {
				return false, m.uopMemFault(f)
			}
			m.regWrite(x86.EAX, iw, v)
			m.Regs[x86.ESI] += delta
		case x86.OpScas:
			v, f := m.Mem.ReadW(m.Regs[x86.EDI], iw)
			if f != nil {
				return false, m.uopMemFault(f)
			}
			m.subFlags(m.regRead(x86.EAX, iw), v, 0, iw)
			m.Regs[x86.EDI] += delta
		case x86.OpCmps:
			a, f := m.Mem.ReadW(m.Regs[x86.ESI], iw)
			if f != nil {
				return false, m.uopMemFault(f)
			}
			b, f := m.Mem.ReadW(m.Regs[x86.EDI], iw)
			if f != nil {
				return false, m.uopMemFault(f)
			}
			m.subFlags(a, b, 0, iw)
			m.Regs[x86.ESI] += delta
			m.Regs[x86.EDI] += delta
		}
		return true, nil
	}

	if rep == 0 {
		_, err := one()
		return err
	}
	for m.Regs[x86.ECX] != 0 {
		if m.Steps >= m.fuel() {
			return &OutOfFuel{Steps: m.Steps}
		}
		if _, err := one(); err != nil {
			return err
		}
		m.Regs[x86.ECX]--
		m.Steps++
		conditional := op == x86.OpScas || op == x86.OpCmps
		if conditional {
			zf := m.GetFlag(x86.FlagZF)
			if (rep == 0xF3 && !zf) || (rep == 0xF2 && zf) {
				break
			}
		}
	}
	return nil
}
