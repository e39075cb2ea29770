package stream

import (
	"testing"
	"testing/quick"
)

func TestTableIMetadataBits(t *testing.T) {
	// Table I of the paper: the common fields plus affine-only fields.
	if SIDBits != 9 {
		t.Errorf("sid = %d bits, want 9", SIDBits)
	}
	if BaseBits != 48 || SizeBits != 48 {
		t.Errorf("base/size = %d/%d bits, want 48/48", BaseBits, SizeBits)
	}
	if StrideBits != 48 || LengthBits != 48 || OrderBits != 3 {
		t.Errorf("stride/length/order = %d/%d/%d, want 48/48/3", StrideBits, LengthBits, OrderBits)
	}
	if MaxStreams != 512 {
		t.Errorf("MaxStreams = %d, want 512 (9-bit sid)", MaxStreams)
	}
}

func TestConfigureFlatAffine(t *testing.T) {
	s, err := Configure(1, Affine, 0x1000, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumElements() != 512 {
		t.Fatalf("elements = %d", s.NumElements())
	}
	if !s.ReadOnly {
		t.Fatal("streams must initialize read-only (§IV-B)")
	}
	id, ok := s.ElemID(0x1000 + 8*17)
	if !ok || id != 17 {
		t.Fatalf("ElemID = %d,%v; want 17,true", id, ok)
	}
	if s.ElemAddr(17) != 0x1000+8*17 {
		t.Fatalf("ElemAddr(17) = %#x", s.ElemAddr(17))
	}
}

func TestConfigureIndirect(t *testing.T) {
	s, err := Configure(2, Indirect, 0x8000, 1024, 4)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s.ElemID(0x8000 + 4*100); !ok || id != 100 {
		t.Fatalf("ElemID = %d,%v", id, ok)
	}
	if _, ok := s.ElemID(0x8000 + 1024); ok {
		t.Fatal("address one past the end reported inside")
	}
}

func TestConfigureRejectsBadInput(t *testing.T) {
	if _, err := Configure(NoStream, Affine, 0, 64, 8); err == nil {
		t.Error("reserved sid accepted")
	}
	if _, err := Configure(1, Affine, 0, 0, 8); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := Configure(1, Affine, 0, 65, 8); err == nil {
		t.Error("size not multiple of elemSize accepted")
	}
	if _, err := Configure(1, Affine, 0, 64, 0); err == nil {
		t.Error("zero elemSize accepted")
	}
	if _, err := Configure(1, Type(9), 0, 64, 8); err == nil {
		t.Error("bad type accepted")
	}
	if _, err := Configure(1, Affine, 1<<49, 64, 8); err == nil {
		t.Error("base beyond 48 bits accepted")
	}
}

func TestColumnMajorAccessToRowMajorMatrix(t *testing.T) {
	// 4x3 matrix (lenX=4 columns stored contiguously, lenY=3 rows),
	// accessed column-major: order YXZ (Y iterates fastest).
	s, err := ConfigureAffine3D(3, 0, 8, 4, 3, 1, OrderYXZ)
	if err != nil {
		t.Fatal(err)
	}
	// Element at storage (x=2, y=1): addr = (1*4+2)*8 = 48.
	// Access order enumerates y fastest: id = x*lenY + y = 2*3+1 = 7.
	id, ok := s.ElemID(48)
	if !ok || id != 7 {
		t.Fatalf("ElemID = %d,%v; want 7,true", id, ok)
	}
	if s.ElemAddr(7) != 48 {
		t.Fatalf("ElemAddr(7) = %d, want 48", s.ElemAddr(7))
	}
	// Consecutive access-order IDs walk down a column: addresses jump by
	// a full row (4*8 bytes).
	a0, a1 := s.ElemAddr(0), s.ElemAddr(1)
	if a1-a0 != 32 {
		t.Fatalf("column step = %d bytes, want 32", a1-a0)
	}
}

func TestStorageOrder3D(t *testing.T) {
	s, err := ConfigureAffine3D(4, 0x100, 4, 8, 4, 2, OrderXYZ)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumElements() != 64 {
		t.Fatalf("elements = %d", s.NumElements())
	}
	// Storage order means ElemID is the flat offset.
	for _, i := range []uint64{0, 1, 7, 8, 31, 63} {
		addr := 0x100 + i*4
		if id, ok := s.ElemID(addr); !ok || id != i {
			t.Fatalf("ElemID(%#x) = %d,%v; want %d", addr, id, ok, i)
		}
	}
}

// Property: ElemAddr and ElemID are inverse bijections over the stream
// for every access order.
func TestElemIDBijectionProperty(t *testing.T) {
	orders := []Order{OrderXYZ, OrderYXZ, OrderXZY, OrderZYX, OrderYZX, OrderZXY}
	for _, o := range orders {
		s, err := ConfigureAffine3D(5, 0x4000, 8, 5, 3, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool)
		for id := uint64(0); id < s.NumElements(); id++ {
			addr := s.ElemAddr(id)
			if seen[addr] {
				t.Fatalf("order %d: duplicate address %#x", o, addr)
			}
			seen[addr] = true
			back, ok := s.ElemID(addr)
			if !ok || back != id {
				t.Fatalf("order %d: roundtrip id %d -> %#x -> %d,%v", o, id, addr, back, ok)
			}
		}
		if len(seen) != int(s.NumElements()) {
			t.Fatalf("order %d: %d distinct addresses for %d elements", o, len(seen), s.NumElements())
		}
	}
}

func TestElemAddrPanicsOutOfRange(t *testing.T) {
	s, _ := Configure(1, Affine, 0, 64, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range ElemAddr did not panic")
		}
	}()
	s.ElemAddr(8)
}

func TestTableAddAndLookup(t *testing.T) {
	tbl := NewTable()
	a, _ := Configure(1, Affine, 0x1000, 0x1000, 8)
	b, _ := Configure(2, Indirect, 0x3000, 0x800, 4)
	if err := tbl.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(b); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if got := tbl.FindByAddr(0x1008); got != a {
		t.Fatalf("FindByAddr(0x1008) = %v", got)
	}
	if got := tbl.FindByAddr(0x3000); got != b {
		t.Fatalf("FindByAddr(0x3000) = %v", got)
	}
	if got := tbl.FindByAddr(0x2500); got != nil {
		t.Fatalf("gap address found stream %v", got)
	}
	if got := tbl.Get(2); got != b {
		t.Fatal("Get(2) wrong")
	}
	if tbl.Get(3) != nil {
		t.Fatal("Get(3) should be nil")
	}
}

func TestTableRejectsOverlapsAndDuplicates(t *testing.T) {
	tbl := NewTable()
	a, _ := Configure(1, Affine, 0x1000, 0x1000, 8)
	if err := tbl.Add(a); err != nil {
		t.Fatal(err)
	}
	dup, _ := Configure(1, Affine, 0x9000, 0x100, 8)
	if err := tbl.Add(dup); err == nil {
		t.Fatal("duplicate sid accepted")
	}
	over, _ := Configure(2, Affine, 0x1800, 0x1000, 8)
	if err := tbl.Add(over); err == nil {
		t.Fatal("overlapping range accepted")
	}
	before, _ := Configure(3, Affine, 0x800, 0x1000, 8)
	if err := tbl.Add(before); err == nil {
		t.Fatal("range overlapping from below accepted")
	}
}

func TestTableAllOrderedByID(t *testing.T) {
	tbl := NewTable()
	for _, sid := range []ID{5, 1, 3} {
		s, _ := Configure(sid, Affine, uint64(sid)*0x10000, 0x100, 8)
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	all := tbl.All()
	if len(all) != 3 || all[0].SID != 1 || all[1].SID != 3 || all[2].SID != 5 {
		t.Fatalf("All() order wrong: %v", all)
	}
}

// TestTableClone: the copy holds equal but distinct streams, answers
// lookups the same way, and clearing a read-only bit on it (the write
// exception) leaves the original untouched.
func TestTableClone(t *testing.T) {
	tbl := NewTable()
	for _, sid := range []ID{5, 1, 3} {
		s, _ := Configure(sid, Indirect, uint64(sid)*0x10000, 0x100, 8)
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Get(3).ReadOnly = false
	cp := tbl.Clone()
	if cp.Len() != tbl.Len() {
		t.Fatalf("clone has %d streams, want %d", cp.Len(), tbl.Len())
	}
	for i, s := range tbl.All() {
		c := cp.All()[i]
		if c == s || *c != *s {
			t.Fatalf("stream %d: clone %+v (same object: %v), want a copy of %+v", s.SID, *c, c == s, *s)
		}
		if cp.Get(s.SID) != c || cp.FindByAddr(s.Base) != c {
			t.Fatalf("stream %d: clone lookups do not return the cloned stream", s.SID)
		}
	}
	cp.Get(1).ReadOnly = false
	if !tbl.Get(1).ReadOnly {
		t.Fatal("clearing the clone's read-only bit changed the original")
	}
}

// Property: FindByAddr agrees with a linear scan.
func TestFindByAddrProperty(t *testing.T) {
	tbl := NewTable()
	var streams []*Stream
	for i := 0; i < 20; i++ {
		s, _ := Configure(ID(i), Affine, uint64(i)*0x10000, 0x8000, 8)
		if err := tbl.Add(s); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	f := func(addr uint32) bool {
		a := uint64(addr) % (21 * 0x10000)
		got := tbl.FindByAddr(a)
		var want *Stream
		for _, s := range streams {
			if s.Contains(a) {
				want = s
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if Affine.String() != "affine" || Indirect.String() != "indirect" {
		t.Fatal("type strings wrong")
	}
	s, _ := Configure(7, Indirect, 0x100, 64, 8)
	if s.String() == "" {
		t.Fatal("empty stream string")
	}
}

func TestIterateAccessOrder(t *testing.T) {
	// Column-major access to a row-major 4x3 matrix: Iterate must yield
	// column-walk addresses (stride = one row = 32 bytes).
	s, err := ConfigureAffine3D(9, 0x1000, 8, 4, 3, 1, OrderYXZ)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	s.Iterate(func(id, addr uint64) bool {
		addrs = append(addrs, addr)
		return true
	})
	if len(addrs) != 12 {
		t.Fatalf("iterated %d elements, want 12", len(addrs))
	}
	// First three addresses walk down column 0.
	if addrs[1]-addrs[0] != 32 || addrs[2]-addrs[1] != 32 {
		t.Fatalf("column walk strides: %v", addrs[:3])
	}
	// Early stop.
	count := 0
	s.Iterate(func(id, addr uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop iterated %d", count)
	}
}

func TestBlockOf(t *testing.T) {
	s, _ := Configure(10, Affine, 0, 8192, 8)
	if s.BlockOf(0, 1024) != 0 || s.BlockOf(127, 1024) != 0 {
		t.Fatal("first block wrong")
	}
	if s.BlockOf(128, 1024) != 1 {
		t.Fatal("second block wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BlockOf(0) did not panic")
		}
	}()
	s.BlockOf(0, 0)
}
