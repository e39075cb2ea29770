package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// digestSize is one generator size the digests are pinned at.
type digestSize struct {
	name  string
	cores int
	sc    Scale
}

// digestSizes are the pinned sizes: the 8-core machine of the golden
// suite, and the 128-core, 4000-accesses-per-core size at full data
// scale that ndpbench and ndpserve generate.
func digestSizes() []digestSize {
	tiny := TinyScale()
	tiny.CoresPerProc = 4
	serve := DefaultScale()
	serve.AccessesPerCore = 4000
	return []digestSize{
		{"8x2500", 8, tiny},
		{"128x4000", 128, serve},
	}
}

var digestSeeds = []uint64{1, 7}

// traceDigests returns the SHA-256 of tr's stream table (every field of
// every stream, in ID order) and of its per-core access sequences.
func traceDigests(tr *Trace) (table, accesses string) {
	var buf []byte
	h := sha256.New()
	for _, s := range tr.Table.All() {
		buf = binary.LittleEndian.AppendUint16(buf[:0], uint16(s.SID))
		buf = append(buf, byte(s.Type))
		buf = binary.LittleEndian.AppendUint64(buf, s.Base)
		buf = binary.LittleEndian.AppendUint64(buf, s.Size)
		buf = binary.LittleEndian.AppendUint32(buf, s.ElemSize)
		buf = append(buf, boolByte(s.ReadOnly))
		for _, v := range s.Stride {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		for _, v := range s.Length {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		buf = append(buf, byte(s.Order))
		h.Write(buf)
	}
	table = hex.EncodeToString(h.Sum(nil))

	h.Reset()
	for _, cs := range tr.PerCore {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(cs)))
		for _, a := range cs {
			buf = binary.LittleEndian.AppendUint64(buf, a.Addr)
			buf = append(buf, boolByte(a.Write), a.Gap)
		}
		h.Write(buf)
	}
	accesses = hex.EncodeToString(h.Sum(nil))
	return table, accesses
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// TestGeneratorDigests pins every workload's generated trace, byte for
// byte, at two sizes and two seeds. It is the fence for changes to the
// generators and to internal/graph that must not move a single access:
// such a change keeps this table as it is. A deliberate change to what
// a generator emits updates the table from the listing the failure
// prints.
func TestGeneratorDigests(t *testing.T) {
	got := map[string][2]string{}
	var keys []string
	for _, name := range Names() {
		for _, sz := range digestSizes() {
			for _, seed := range digestSeeds {
				gen, _ := Get(name)
				tr, err := gen(sz.cores, seed, sz.sc)
				if err != nil {
					t.Fatalf("%s %s seed %d: %v", name, sz.name, seed, err)
				}
				key := fmt.Sprintf("%s/%s/seed%d", name, sz.name, seed)
				tbl, acc := traceDigests(tr)
				got[key] = [2]string{tbl, acc}
				keys = append(keys, key)
			}
		}
	}
	drift := false
	for _, key := range keys {
		want, ok := generatorDigests[key]
		if !ok || want != got[key] {
			drift = true
			t.Errorf("%s: digests %v, want %v", key, got[key], want)
		}
	}
	if len(generatorDigests) != len(keys) {
		drift = true
		t.Errorf("%d pinned digests, %d generated traces", len(generatorDigests), len(keys))
	}
	if drift {
		var sb strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&sb, "\t%q: {%q, %q},\n", key, got[key][0], got[key][1])
		}
		t.Logf("generated digests:\n%s", sb.String())
	}
}

// generatorDigests maps workload/size/seed to the SHA-256 of the
// generated stream table and of the per-core accesses.
var generatorDigests = map[string][2]string{
	"backprop/8x2500/seed1":     {"173fdbf7beb91d99f2ab62db7c1e17a2ee18020347658e2d0e16178d0a3dd959", "8ba9cb85068b689d5ec46898812cc0a14d3112b6d9027bde35ac4f2fa1c9423c"},
	"backprop/8x2500/seed7":     {"173fdbf7beb91d99f2ab62db7c1e17a2ee18020347658e2d0e16178d0a3dd959", "8ba9cb85068b689d5ec46898812cc0a14d3112b6d9027bde35ac4f2fa1c9423c"},
	"backprop/128x4000/seed1":   {"7d352e8eeaacc1d708241507fa5838f7bcab4ff475e3549dee0ce0418d4309ca", "fd059ad03be1542d1a21f54c8dd21bcf77f2cb961cd1de39c62b084a3d6cf445"},
	"backprop/128x4000/seed7":   {"7d352e8eeaacc1d708241507fa5838f7bcab4ff475e3549dee0ce0418d4309ca", "fd059ad03be1542d1a21f54c8dd21bcf77f2cb961cd1de39c62b084a3d6cf445"},
	"bc/8x2500/seed1":           {"cb81ec8a502e4c5b78c11cfdb1a13341a40a6c93e80aad8414becbf933b279ed", "a62710d83970b0f9761693fbb70528891c8789e230bbe82acfa31932c33494b9"},
	"bc/8x2500/seed7":           {"cb81ec8a502e4c5b78c11cfdb1a13341a40a6c93e80aad8414becbf933b279ed", "13ce3f8d1263de8d8e6d557a11b08227dd744712e53659a071d14688307126e4"},
	"bc/128x4000/seed1":         {"4b484cb3f71c8ccda2ad1ea144b489a82dc3002b948664115e21f0ef76004ddd", "44e197467475af0b7981632eda7bef93485ded8e02d4f96c685191a1fe28af34"},
	"bc/128x4000/seed7":         {"4b484cb3f71c8ccda2ad1ea144b489a82dc3002b948664115e21f0ef76004ddd", "888e5a61009fb4a317f2be803e389e6d95de8944eeaa1df9bdf996fcc973806a"},
	"bfs/8x2500/seed1":          {"54442f3177cd8143c1be15201aeb8ad353c32f9cddd7744e1cad229c7bb6cea2", "a0a756bfb1b9b0a88cc53dcef7c0878a703678ce649a62ca4b0cd0f1b9aaaa7c"},
	"bfs/8x2500/seed7":          {"54442f3177cd8143c1be15201aeb8ad353c32f9cddd7744e1cad229c7bb6cea2", "492c516da4ea070fac537af3eb0a810ec350153752d67baf2909c731be60830e"},
	"bfs/128x4000/seed1":        {"f6e589589339908c7f288305108d3f5e5832570cea8832ea56f26e7db45b7cbc", "f63e0af7260208831c913e2712974516953a5dcc2179e618692b4b526a49439b"},
	"bfs/128x4000/seed7":        {"f6e589589339908c7f288305108d3f5e5832570cea8832ea56f26e7db45b7cbc", "01e3e60012bf1368e762874ca452b446e23ccb8085837e7031d0b1ea7be2acfd"},
	"cc/8x2500/seed1":           {"7a22ff15c57cb52e5f69db9f8e40e94de4997565816f9b9c150879917b3de667", "be53d631cb4a7cc0bfe86ad5431b2c091ae008873d49126c3441b9c1c1dbc0e8"},
	"cc/8x2500/seed7":           {"7a22ff15c57cb52e5f69db9f8e40e94de4997565816f9b9c150879917b3de667", "2b6aa43b8471d2c660c5a4c7c13cfef391bf05f68b444e7aae5da5c4e5c33658"},
	"cc/128x4000/seed1":         {"acd5faa211b7e4cf1fa92ebc1abaf0785405bef70ed1a89b46eeaadc628e6290", "0208b805b914fd8afa4934edaef4dce4cafd3a02130e0d255aa3684839bcb295"},
	"cc/128x4000/seed7":         {"acd5faa211b7e4cf1fa92ebc1abaf0785405bef70ed1a89b46eeaadc628e6290", "dfb6db46b448e60299742207bc19e8ed18b47b1a3b0edfe53b2a6672a81c0271"},
	"gnn/8x2500/seed1":          {"f1c64f48da1f783fb78962bf8b5cb8f7df7d8c36348a223596521f391758f7da", "fca4456dac43de537145b2953ff41b7fc249309eb5ed6b5a6a1676abbe7945e9"},
	"gnn/8x2500/seed7":          {"f1c64f48da1f783fb78962bf8b5cb8f7df7d8c36348a223596521f391758f7da", "6e76b2145b1a2e39ca60caef5bacea441dc89957e4d1aee3206e22fe6f4544be"},
	"gnn/128x4000/seed1":        {"5dda805c2ffc4d9779d084556756512adeeb977371c4f48cbd58911fe23a2ed0", "3710240d0e1188ca482fc1e953ae8f88a56e6cb94caf7a979e09cbddb3d507a2"},
	"gnn/128x4000/seed7":        {"5dda805c2ffc4d9779d084556756512adeeb977371c4f48cbd58911fe23a2ed0", "58aa0a2033bb8cbbeccda9ca7e07194a0a6e4b116fcb5a3866426796bccf19c9"},
	"hotspot/8x2500/seed1":      {"0d1e9f11083fd4385fb28139479614a1426ac6521469182704163b6f4fa3541d", "444f2dff751d2f636167df36b5e6f1860e128b5de27187c114071e3f53a00e03"},
	"hotspot/8x2500/seed7":      {"0d1e9f11083fd4385fb28139479614a1426ac6521469182704163b6f4fa3541d", "444f2dff751d2f636167df36b5e6f1860e128b5de27187c114071e3f53a00e03"},
	"hotspot/128x4000/seed1":    {"06fffd3ffec87f56affaa7d0c712d39a17572bf17e0c40ea79f72eef626ad30a", "3e392ba81dbf79effca142da0da56aa6417d456d40fc4f80b0e6cb0965e569b5"},
	"hotspot/128x4000/seed7":    {"06fffd3ffec87f56affaa7d0c712d39a17572bf17e0c40ea79f72eef626ad30a", "3e392ba81dbf79effca142da0da56aa6417d456d40fc4f80b0e6cb0965e569b5"},
	"lavaMD/8x2500/seed1":       {"14eec4e2716c6264ef57589ee05e30df7514b832b3096e791d63a884a7593b49", "4ec13b9fcb8b7f9cdddb8a4c3a0cbf414b55318f51a9365d3d2942f9406676e6"},
	"lavaMD/8x2500/seed7":       {"14eec4e2716c6264ef57589ee05e30df7514b832b3096e791d63a884a7593b49", "4ec13b9fcb8b7f9cdddb8a4c3a0cbf414b55318f51a9365d3d2942f9406676e6"},
	"lavaMD/128x4000/seed1":     {"86380da470a8e85e0d0797f79187c0c3a2300d1ca626f53baa1de68f82f9852c", "64bed045ec7c8df1c6f347ef0a845161a8cac631bd3ed2346fe00ee2410434bb"},
	"lavaMD/128x4000/seed7":     {"86380da470a8e85e0d0797f79187c0c3a2300d1ca626f53baa1de68f82f9852c", "64bed045ec7c8df1c6f347ef0a845161a8cac631bd3ed2346fe00ee2410434bb"},
	"lud/8x2500/seed1":          {"03d7a7beeff6aa6bd11309b62df8f9f15207079fa9ee4007a2db4f9dd1e5aff3", "0422b533529267d44ec9f2f2491b17397d7f54dcc1a4ff174e3c5338c1136ba5"},
	"lud/8x2500/seed7":          {"03d7a7beeff6aa6bd11309b62df8f9f15207079fa9ee4007a2db4f9dd1e5aff3", "0422b533529267d44ec9f2f2491b17397d7f54dcc1a4ff174e3c5338c1136ba5"},
	"lud/128x4000/seed1":        {"5e1731dd165fa9022ebef512569e8d57d4c82635c57bea7771942f66d90ba057", "ffecd524a27c6fbb51e415329dae902f68bbb7fce25214b6a5944e7edf2199d0"},
	"lud/128x4000/seed7":        {"5e1731dd165fa9022ebef512569e8d57d4c82635c57bea7771942f66d90ba057", "ffecd524a27c6fbb51e415329dae902f68bbb7fce25214b6a5944e7edf2199d0"},
	"mv/8x2500/seed1":           {"d3289b7eab34accd664637060ef8be93bc4e3ea7c115ce71d801ee062ff8598d", "d388ae06b8f5ff6e76e59fb294c6af44bba71a9938fd76412bc6e3270d4438ee"},
	"mv/8x2500/seed7":           {"d3289b7eab34accd664637060ef8be93bc4e3ea7c115ce71d801ee062ff8598d", "d388ae06b8f5ff6e76e59fb294c6af44bba71a9938fd76412bc6e3270d4438ee"},
	"mv/128x4000/seed1":         {"dcd3ef1c3659181dc887e15904e6ec19892dc946a4abe2d6dd98c39c19fce90a", "efb26dbc6bb327ec8601cb8e3ab8ba0ae53a219e3899ae843995595fa727fc87"},
	"mv/128x4000/seed7":         {"dcd3ef1c3659181dc887e15904e6ec19892dc946a4abe2d6dd98c39c19fce90a", "efb26dbc6bb327ec8601cb8e3ab8ba0ae53a219e3899ae843995595fa727fc87"},
	"pathfinder/8x2500/seed1":   {"b4f507346989235b2d34ec157fff191d29f914c9ac429d3ab344f6120d971513", "035a6bad3931ea39e114ba6c2a30f3e4416117c582e904e13aa8fccb22574610"},
	"pathfinder/8x2500/seed7":   {"b4f507346989235b2d34ec157fff191d29f914c9ac429d3ab344f6120d971513", "035a6bad3931ea39e114ba6c2a30f3e4416117c582e904e13aa8fccb22574610"},
	"pathfinder/128x4000/seed1": {"333cfc7e31c0ae3f775291287e2ab05611d41b711509ef0ec822d757b03bf4cb", "8ee717acf5c39a6cdafb35dda9333fd8683b95e5637d6ffc669cdfa6ba4d52a9"},
	"pathfinder/128x4000/seed7": {"333cfc7e31c0ae3f775291287e2ab05611d41b711509ef0ec822d757b03bf4cb", "8ee717acf5c39a6cdafb35dda9333fd8683b95e5637d6ffc669cdfa6ba4d52a9"},
	"phased/8x2500/seed1":       {"f2c13fcbe01e8759d930594f4ae5137a40d0dabdce8dd91392a7957fbc85e27e", "6d32c3b206da124d1bf6ae64c682103902a0be4ac7ea63109ff1dcf281aaeae6"},
	"phased/8x2500/seed7":       {"f2c13fcbe01e8759d930594f4ae5137a40d0dabdce8dd91392a7957fbc85e27e", "8b6c84af0850e20b8988f27582207d7caaa64db47eeaafdec209debe76d69a7d"},
	"phased/128x4000/seed1":     {"d45ae7dcb47a19e9704e241bff6d4deb84aed529a2d5045e0f95029ba3453319", "f16fc68fd518ea6c722a85601139e6de3524e7415510c548dcc75ac60f415c11"},
	"phased/128x4000/seed7":     {"d45ae7dcb47a19e9704e241bff6d4deb84aed529a2d5045e0f95029ba3453319", "5da01d16fe39db6138a31c1774bb188595ed96a13e1a5bc90c65dd642f81668c"},
	"pr/8x2500/seed1":           {"54442f3177cd8143c1be15201aeb8ad353c32f9cddd7744e1cad229c7bb6cea2", "2769ffa7cc8a16d06783d7fe6335fe5b035a501af31460724ace887d4d5f5896"},
	"pr/8x2500/seed7":           {"54442f3177cd8143c1be15201aeb8ad353c32f9cddd7744e1cad229c7bb6cea2", "cd0d55081a461ac86a1c58064b144ce2bb8b88c51ef606d16aa20163789a24b7"},
	"pr/128x4000/seed1":         {"f6e589589339908c7f288305108d3f5e5832570cea8832ea56f26e7db45b7cbc", "2aef7b6e929523819c8901365fc71e1d8f2c9b5cf6490c67c4cd35b2b12fb07f"},
	"pr/128x4000/seed7":         {"f6e589589339908c7f288305108d3f5e5832570cea8832ea56f26e7db45b7cbc", "a05eb41e83f1662c9ee93208615e7720da4e6732f9a391e73e49e75779dc7202"},
	"recsys/8x2500/seed1":       {"2905e461a7a0b206687191894fa5cc5b3d7851c5133af6f0a04681686cd8ba23", "cce8fddb590b6e1f43fa05275466696ccc446f41dfe9fb57221e58e31b00ddaf"},
	"recsys/8x2500/seed7":       {"2905e461a7a0b206687191894fa5cc5b3d7851c5133af6f0a04681686cd8ba23", "d196020192cff5dbe019d8538b73b30b99d98900e8568c627169206489440f4d"},
	"recsys/128x4000/seed1":     {"feb9b52ac28adc168f6e8e90bf850ca0c8be7592b4cd5c9c748428ed94503243", "2eca92d8fa3287745098dbc8c0d86446658f1c94ff2280b874613167b2d2f336"},
	"recsys/128x4000/seed7":     {"feb9b52ac28adc168f6e8e90bf850ca0c8be7592b4cd5c9c748428ed94503243", "6e34e5451d8bc2d20d25fce57a2c620633e1af4a23ed714d83a55dbf62945881"},
	"tc/8x2500/seed1":           {"ba9066b25cfe2a0aebdb8ac345428c415762e59b936504b4d6a088201487be06", "5b5f4c7078152a43914f0603bca87f989618f7fe8500e2f88857c8d23239328f"},
	"tc/8x2500/seed7":           {"ba9066b25cfe2a0aebdb8ac345428c415762e59b936504b4d6a088201487be06", "cb1e3a2eecf381c52422c5e824fd876ea90a72fb339aca9183771287f1a62e91"},
	"tc/128x4000/seed1":         {"b6e2c28877a0401235f2988c79f4361c3a716b4fb53c985defefea2acefa3ac3", "c605edd2579ce122b6ebf3527c9f49a2381de2dfa71fdd90ceedffc20005656e"},
	"tc/128x4000/seed7":         {"b6e2c28877a0401235f2988c79f4361c3a716b4fb53c985defefea2acefa3ac3", "fbd6e8477cc32e0af9aa818ef03284eaf6647088c63f4acefad78c6e50652fa5"},
}
