package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnmappedReadsZero(t *testing.T) {
	m := New()
	if m.Read(0xDEADBEEF, 8) != 0 {
		t.Error("unmapped memory must read zero")
	}
	if m.MappedPages() != 0 {
		t.Error("reads must not allocate pages")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write(0x1000, 8, 0x1122334455667788)
	if got := m.Read(0x1000, 8); got != 0x1122334455667788 {
		t.Errorf("Read = %#x", got)
	}
	// Little-endian byte order.
	if m.LoadByte(0x1000) != 0x88 || m.LoadByte(0x1007) != 0x11 {
		t.Error("memory must be little-endian")
	}
	if got := m.Read(0x1000, 4); got != 0x55667788 {
		t.Errorf("4-byte Read = %#x", got)
	}
	if got := m.Read(0x1004, 4); got != 0x11223344 {
		t.Errorf("upper 4-byte Read = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 4)
	m.Write(addr, 8, 0xAABBCCDD11223344)
	if got := m.Read(addr, 8); got != 0xAABBCCDD11223344 {
		t.Errorf("straddling read = %#x", got)
	}
	if m.MappedPages() != 2 {
		t.Errorf("straddling write should touch 2 pages, got %d", m.MappedPages())
	}
}

func TestWriteTruncation(t *testing.T) {
	m := New()
	m.Write(0, 8, ^uint64(0))
	m.Write(0, 1, 0x1234) // only low byte lands
	if got := m.Read(0, 8); got != 0xFFFFFFFFFFFFFF34 {
		t.Errorf("byte overwrite = %#x", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, sz uint8) bool {
		size := []int{1, 4, 8}[sz%3]
		addr %= 1 << 30
		m.Write(addr, size, v)
		got := m.Read(addr, size)
		switch size {
		case 1:
			return got == v&0xFF
		case 4:
			return got == v&0xFFFFFFFF
		default:
			return got == v
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPermissions(t *testing.T) {
	m := New()
	m.SetKernel(0x3000, 0x1000)
	if m.UserAccessOK(0x3000, 8) {
		t.Error("kernel page must reject user access")
	}
	if m.UserAccessOK(0x2FFC, 8) {
		t.Error("access straddling into a kernel page must be rejected")
	}
	if !m.UserAccessOK(0x2FF8, 8) {
		t.Error("access fully below the kernel page must be allowed")
	}
	if !m.KernelOnly(0x3FFF) || m.KernelOnly(0x4000) {
		t.Error("kernel range must cover exactly its pages")
	}
	m.SetUser(0x3000, 0x1000)
	if !m.UserAccessOK(0x3000, 8) {
		t.Error("SetUser must restore access")
	}
}

// TestProtectionWrapsPastTop: a range that runs past 2^64 covers the top
// page and then page 0. Checking only start <= page <= end pages would see an
// end page below the start page and visit nothing.
func TestProtectionWrapsPastTop(t *testing.T) {
	const top = ^uint64(0) - 3 // 2^64-4: an 8-byte access wraps to page 0
	m := New()
	m.SetKernel(0, 1)
	if m.UserAccessOK(top, 8) {
		t.Error("access wrapping into kernel page 0 must be rejected")
	}
	if !m.UserAccessOK(top, 4) {
		t.Error("access ending at 2^64-1 must not see page 0")
	}

	m = New()
	m.SetKernel(top, 8)
	if !m.KernelOnly(top) || !m.KernelOnly(0) || m.KernelOnly(PageSize) {
		t.Errorf("SetKernel(2^64-4, 8) marked pages %v, want the top page and page 0", m.KernelPages())
	}
	m.SetUser(top, 8)
	if len(m.KernelPages()) != 0 {
		t.Errorf("SetUser(2^64-4, 8) left kernel pages %v", m.KernelPages())
	}
}

// TestBulkBytesMatchByteAtATime checks the page-slice copies of StoreBytes
// and LoadBytes, and the single-lookup 4- and 8-byte Read/Write, against a
// byte-at-a-time reference: at random offsets and lengths, across page
// boundaries and across the wrap at the top of the address space, both give
// the same bytes and map the same pages.
func TestBulkBytesMatchByteAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bases := []uint64{0, 5 * PageSize, ^uint64(0) - 2*PageSize}
	addr := func() uint64 {
		return bases[rng.Intn(len(bases))] + uint64(rng.Intn(4*PageSize))
	}
	bulk, ref := New(), New()
	for i := 0; i < 2000; i++ {
		a := addr()
		switch rng.Intn(3) {
		case 0:
			b := make([]byte, rng.Intn(3*PageSize))
			rng.Read(b)
			bulk.StoreBytes(a, b)
			for j, v := range b {
				ref.StoreByte(a+uint64(j), v)
			}
		case 1:
			size := []int{4, 8}[rng.Intn(2)]
			v := rng.Uint64()
			bulk.Write(a, size, v)
			for j := 0; j < size; j++ {
				ref.StoreByte(a+uint64(j), byte(v>>(8*j)))
			}
		case 2:
			size := []int{1, 4, 8}[rng.Intn(3)]
			var want uint64
			for j := 0; j < size; j++ {
				want |= uint64(ref.LoadByte(a+uint64(j))) << (8 * j)
			}
			if got := bulk.Read(a, size); got != want {
				t.Fatalf("Read(%#x, %d) = %#x, want %#x", a, size, got, want)
			}
		}
		a = addr()
		n := rng.Intn(3 * PageSize)
		want := make([]byte, n)
		for j := range want {
			want[j] = ref.LoadByte(a + uint64(j))
		}
		if got := bulk.LoadBytes(a, n); !bytes.Equal(got, want) {
			t.Fatalf("op %d: LoadBytes(%#x, %d) differs from byte-at-a-time loads", i, a, n)
		}
		if bulk.MappedPages() != ref.MappedPages() {
			t.Fatalf("op %d: %d pages mapped, byte-at-a-time maps %d", i, bulk.MappedPages(), ref.MappedPages())
		}
	}
	for _, pn := range ref.PageNums() {
		if !bytes.Equal(bulk.PageData(pn), ref.PageData(pn)) {
			t.Fatalf("page %#x differs", pn)
		}
	}
}

func TestSetKernelZeroSize(t *testing.T) {
	m := New()
	m.SetKernel(0x5000, 0)
	if m.KernelOnly(0x5000) {
		t.Error("zero-size SetKernel must mark nothing")
	}
}

func TestClone(t *testing.T) {
	m := New()
	m.Write(0x100, 8, 42)
	m.SetKernel(0x9000, 16)
	c := m.Clone()
	if c.Read(0x100, 8) != 42 || !c.KernelOnly(0x9000) {
		t.Error("clone must copy contents and permissions")
	}
	c.Write(0x100, 8, 7)
	if m.Read(0x100, 8) != 42 {
		t.Error("clone must be independent of the original")
	}
	m.Write(0x200, 8, 9)
	if c.Read(0x200, 8) != 0 {
		t.Error("original writes must not appear in the clone")
	}
}

func TestBytesHelpers(t *testing.T) {
	m := New()
	m.StoreBytes(0x40, []byte{1, 2, 3, 4})
	got := m.LoadBytes(0x40, 4)
	for i, b := range []byte{1, 2, 3, 4} {
		if got[i] != b {
			t.Fatalf("LoadBytes[%d] = %d, want %d", i, got[i], b)
		}
	}
}

func TestInvalidSizePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Error("Read with invalid size must panic")
		}
	}()
	m.Read(0, 3)
}
