package vm

import "faultsec/internal/x86"

// ALU micro-op handlers. Each (op, form) pair gets its own plain func so
// the warm path performs no operand-routing dispatch: the form was folded
// into the handler index at bind time, and the width mask/sign bit ride on
// the Uop. Accumulator-immediate encodings share the r/m,imm handlers via
// the register RM synthesized by the binder.

func uAddRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(dst, m.regRead(u.Reg, u.W), 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uAddRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(m.regRead(u.Reg, u.W), src, 0, u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uAddRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(dst, uint32(u.Imm), 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uAdcRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(dst, m.regRead(u.Reg, u.W), b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uAdcRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(m.regRead(u.Reg, u.W), src, b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uAdcRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.addFlagsMS(dst, uint32(u.Imm), b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uSubRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(dst, m.regRead(u.Reg, u.W), 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uSubRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(m.regRead(u.Reg, u.W), src, 0, u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uSubRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(dst, uint32(u.Imm), 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uSbbRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(dst, m.regRead(u.Reg, u.W), b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uSbbRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(m.regRead(u.Reg, u.W), src, b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uSbbRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(dst, uint32(u.Imm), b2u(m.GetFlag(x86.FlagCF)), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uAndRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst&m.regRead(u.Reg, u.W), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uAndRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(m.regRead(u.Reg, u.W)&src, u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uAndRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst&uint32(u.Imm), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uOrRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst|m.regRead(u.Reg, u.W), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uOrRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(m.regRead(u.Reg, u.W)|src, u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uOrRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst|uint32(u.Imm), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uXorRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst^m.regRead(u.Reg, u.W), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uXorRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(m.regRead(u.Reg, u.W)^src, u.Mask, u.Sign)
	m.regWrite(u.Reg, u.W, r)
	return nil
}

func uXorRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.logicFlagsMS(dst^uint32(u.Imm), u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uCmpRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.subFlagsMS(dst, m.regRead(u.Reg, u.W), 0, u.Mask, u.Sign)
	return nil
}

func uCmpRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.subFlagsMS(m.regRead(u.Reg, u.W), src, 0, u.Mask, u.Sign)
	return nil
}

func uCmpRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.subFlagsMS(dst, uint32(u.Imm), 0, u.Mask, u.Sign)
	return nil
}

func uTestRMReg(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.logicFlagsMS(dst&m.regRead(u.Reg, u.W), u.Mask, u.Sign)
	return nil
}

func uTestRegRM(m *Machine, u *x86.Uop) error {
	src, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.logicFlagsMS(m.regRead(u.Reg, u.W)&src, u.Mask, u.Sign)
	return nil
}

func uTestRMImm(m *Machine, u *x86.Uop) error {
	dst, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.logicFlagsMS(dst&uint32(u.Imm), u.Mask, u.Sign)
	return nil
}

func uIncReg(m *Machine, u *x86.Uop) error {
	m.regWrite(u.Reg, u.W, m.incFlagsMS(m.regRead(u.Reg, u.W), u.Mask, u.Sign))
	return nil
}

func uIncRM(m *Machine, u *x86.Uop) error {
	v, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	if f := m.rmWrite(&u.RM, u.W, m.incFlagsMS(v, u.Mask, u.Sign)); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uDecReg(m *Machine, u *x86.Uop) error {
	m.regWrite(u.Reg, u.W, m.decFlagsMS(m.regRead(u.Reg, u.W), u.Mask, u.Sign))
	return nil
}

func uDecRM(m *Machine, u *x86.Uop) error {
	v, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	if f := m.rmWrite(&u.RM, u.W, m.decFlagsMS(v, u.Mask, u.Sign)); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uNot(m *Machine, u *x86.Uop) error {
	v, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	if f := m.rmWrite(&u.RM, u.W, ^v); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uNeg(m *Machine, u *x86.Uop) error {
	v, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.subFlagsMS(0, v, 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

// shiftCommon applies the shift/rotate identified by u.Aux with the given
// count (already masked to 5 bits).
func shiftCommon(m *Machine, u *x86.Uop, count uint32) error {
	v, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	r := m.execShift(x86.Op(u.Aux), v, count, u.W)
	if f := m.rmWrite(&u.RM, u.W, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uShiftImm(m *Machine, u *x86.Uop) error {
	return shiftCommon(m, u, uint32(u.Imm)&0x1F)
}

func uShiftCL(m *Machine, u *x86.Uop) error {
	return shiftCommon(m, u, m.Regs[x86.ECX]&0x1F)
}

// doubleShift implements SHLD/SHRD with a resolved count.
func doubleShift(m *Machine, u *x86.Uop, left bool, count uint32) error {
	v, f := m.rmRead(&u.RM, 4)
	if f != nil {
		return m.uopMemFault(f)
	}
	if count == 0 {
		return nil
	}
	other := m.regRead(u.Reg, 4)
	var r uint32
	if left {
		r = v<<count | other>>(32-count)
		m.setFlag(x86.FlagCF, v>>(32-count)&1 != 0)
	} else {
		r = v>>count | other<<(32-count)
		m.setFlag(x86.FlagCF, v>>(count-1)&1 != 0)
	}
	m.setSZP(r, 4)
	if f := m.rmWrite(&u.RM, 4, r); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uShldImm(m *Machine, u *x86.Uop) error {
	return doubleShift(m, u, true, uint32(u.Imm)&0x1F)
}

func uShldCL(m *Machine, u *x86.Uop) error {
	return doubleShift(m, u, true, m.Regs[x86.ECX]&0x1F)
}

func uShrdImm(m *Machine, u *x86.Uop) error {
	return doubleShift(m, u, false, uint32(u.Imm)&0x1F)
}

func uShrdCL(m *Machine, u *x86.Uop) error {
	return doubleShift(m, u, false, m.Regs[x86.ECX]&0x1F)
}

// bitTest implements BT/BTS/BTR/BTC with a resolved bit offset. Faults are
// stamped with m.pc.
func (m *Machine) bitTest(op x86.Op, off uint32, rm *x86.RM) error {
	var v uint32
	var addr uint32
	if rm.IsReg {
		off &= 31
		v = m.Regs[rm.Reg]
	} else {
		// Memory form: the bit string extends beyond the dword.
		addr = m.effAddr(rm) + 4*(off>>5)
		off &= 31
		var f *Fault
		v, f = m.Mem.Read32(addr)
		if f != nil {
			return m.uopMemFault(f)
		}
	}
	bit := v >> off & 1
	m.setFlag(x86.FlagCF, bit != 0)
	var nv uint32
	switch op {
	case x86.OpBt:
		return nil
	case x86.OpBts:
		nv = v | 1<<off
	case x86.OpBtr:
		nv = v &^ (1 << off)
	case x86.OpBtc:
		nv = v ^ 1<<off
	}
	if rm.IsReg {
		m.Regs[rm.Reg] = nv
		return nil
	}
	if f := m.Mem.Write32(addr, nv); f != nil {
		return m.uopMemFault(f)
	}
	return nil
}

func uBitTestReg(m *Machine, u *x86.Uop) error {
	return m.bitTest(x86.Op(u.Aux), m.regRead(u.Reg, 4), &u.RM)
}

func uBitTestImm(m *Machine, u *x86.Uop) error {
	return m.bitTest(x86.Op(u.Aux), uint32(u.Imm), &u.RM)
}

func uXadd(m *Machine, u *x86.Uop) error {
	rv := m.regRead(u.Reg, u.W)
	mv, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	sum := m.addFlagsMS(mv, rv, 0, u.Mask, u.Sign)
	if f := m.rmWrite(&u.RM, u.W, sum); f != nil {
		return m.uopMemFault(f)
	}
	m.regWrite(u.Reg, u.W, mv)
	return nil
}

func uCmpxchg(m *Machine, u *x86.Uop) error {
	acc := m.regRead(x86.EAX, u.W)
	mv, f := m.rmRead(&u.RM, u.W)
	if f != nil {
		return m.uopMemFault(f)
	}
	m.subFlagsMS(acc, mv, 0, u.Mask, u.Sign)
	if acc == mv {
		if f := m.rmWrite(&u.RM, u.W, m.regRead(u.Reg, u.W)); f != nil {
			return m.uopMemFault(f)
		}
	} else {
		m.regWrite(x86.EAX, u.W, mv)
	}
	return nil
}

// execShift implements the shift and rotate group (shared by the micro-op
// handlers and the legacy switch).
func (m *Machine) execShift(op x86.Op, v, count uint32, w uint8) uint32 {
	bitsN := uint32(w) * 8
	if count == 0 {
		return v
	}
	mask := x86.WidthMask(w)
	v &= mask
	var r uint32
	switch op {
	case x86.OpShl:
		if count > bitsN {
			r = 0
			m.setFlag(x86.FlagCF, false)
		} else {
			r = v << count & mask
			m.setFlag(x86.FlagCF, v>>(bitsN-count)&1 != 0)
		}
		if count == 1 {
			m.setFlag(x86.FlagOF, (r&x86.SignBit(w) != 0) != m.GetFlag(x86.FlagCF))
		}
		m.setSZP(r, w)
	case x86.OpShr:
		if count > bitsN {
			r = 0
			m.setFlag(x86.FlagCF, false)
		} else {
			r = v >> count
			m.setFlag(x86.FlagCF, v>>(count-1)&1 != 0)
		}
		if count == 1 {
			m.setFlag(x86.FlagOF, v&x86.SignBit(w) != 0)
		}
		m.setSZP(r, w)
	case x86.OpSar:
		sv := int32(v << (32 - bitsN)) // sign-position-normalize
		if count >= bitsN {
			count = bitsN - 1
			m.setFlag(x86.FlagCF, sv < 0)
		} else {
			m.setFlag(x86.FlagCF, v>>(count-1)&1 != 0)
		}
		r = uint32(sv>>(32-bitsN)>>count) & mask
		if count == 1 {
			m.setFlag(x86.FlagOF, false)
		}
		m.setSZP(r, w)
	case x86.OpRol:
		c := count % bitsN
		if c == 0 {
			r = v
		} else {
			r = (v<<c | v>>(bitsN-c)) & mask
		}
		m.setFlag(x86.FlagCF, r&1 != 0)
		if count == 1 {
			m.setFlag(x86.FlagOF, (r&x86.SignBit(w) != 0) != m.GetFlag(x86.FlagCF))
		}
	case x86.OpRor:
		c := count % bitsN
		if c == 0 {
			r = v
		} else {
			r = (v>>c | v<<(bitsN-c)) & mask
		}
		m.setFlag(x86.FlagCF, r&x86.SignBit(w) != 0)
	case x86.OpRcl:
		r = v
		for i := uint32(0); i < count%(bitsN+1); i++ {
			carry := b2u(m.GetFlag(x86.FlagCF))
			m.setFlag(x86.FlagCF, r&x86.SignBit(w) != 0)
			r = (r<<1 | carry) & mask
		}
	case x86.OpRcr:
		r = v
		for i := uint32(0); i < count%(bitsN+1); i++ {
			carry := b2u(m.GetFlag(x86.FlagCF))
			m.setFlag(x86.FlagCF, r&1 != 0)
			r = r>>1 | carry<<(bitsN-1)
		}
	}
	return r & mask
}
