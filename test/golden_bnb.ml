(* Golden Hexabs.minimize and Advisor.solve results, one line per problem
   and solver, recorded before the branch-and-bound worklist became a heap.
   Format: experiment|minimize|best|talg|evals_concrete|evals_bound|
           boxes_pruned|boxes_enumerated|live_count|live_digest|first|last
       or: experiment|advisor|config|talg
   Regenerate with Bnb_trajectory.lines (test/bnb_trajectory.ml). *)
let lines = [
  {|gtx980/jacobi2d:512x512xT128|minimize|tT10-tS3x192|0.00071980524212634101|1|1904|695|1038|343|2be77c7e5b7d0d3e09de0b073dcd91bc|tT[10..10]-tS[3..3]x[192..192]|tT[2..2]-tS[3..3]x[128..128]|};
  {|gtx980/jacobi2d:512x512xT128|advisor|tT10-tS3x192-thr256|0.00071980524212634101|};
  {|gtx980/heat2d:512x512xT128|minimize|tT10-tS3x192|0.00077314425565810246|1|1908|694|1040|346|43c691afa38917dcf51520456cd4a67a|tT[10..10]-tS[3..3]x[192..192]|tT[10..10]-tS[4..4]x[64..64]|};
  {|gtx980/heat2d:512x512xT128|advisor|tT10-tS3x192-thr256|0.00077314425565810246|};
  {|gtx980/laplacian2d:512x512xT128|minimize|tT10-tS3x192|0.0006666257965197447|1|1904|699|1038|339|597ba03ed9b2173e199381801532ebc8|tT[10..10]-tS[3..3]x[192..192]|tT[12..12]-tS[3..3]x[128..128]|};
  {|gtx980/laplacian2d:512x512xT128|advisor|tT10-tS3x192-thr256|0.0006666257965197447|};
  {|gtx980/gradient2d:512x512xT128|minimize|tT10-tS3x192|0.0012400997888868113|1|1932|700|1053|353|0761a02ac96d14fd51da954bf6c475ef|tT[10..10]-tS[3..3]x[192..192]|tT[10..10]-tS[4..4]x[64..64]|};
  {|gtx980/gradient2d:512x512xT128|advisor|tT10-tS3x192-thr256|0.0012400997888868113|};
  {|titanx/jacobi2d:512x512xT128|minimize|tT16-tS3x192|0.00055614187703153628|1|1291|470|689|219|b4c93d7bf5d985ec4e10e646e87f0a79|tT[16..16]-tS[3..3]x[192..192]|tT[18..20]-tS[3..3]x[224..256]|};
  {|titanx/jacobi2d:512x512xT128|advisor|tT16-tS3x192-thr256|0.00055614187703153628|};
  {|titanx/heat2d:512x512xT128|minimize|tT16-tS3x192|0.00059622182573646908|1|1301|474|694|220|a4af4e43a1fcebbde8db71ccc2d493a1|tT[16..16]-tS[3..3]x[192..192]|tT[18..20]-tS[3..3]x[224..256]|};
  {|titanx/heat2d:512x512xT128|advisor|tT16-tS3x192-thr256|0.00059622182573646908|};
  {|titanx/laplacian2d:512x512xT128|minimize|tT16-tS3x192|0.0005139228516746892|1|1294|470|691|221|5d30e7002e14705da0c2d6a354b37382|tT[16..16]-tS[3..3]x[192..192]|tT[18..20]-tS[3..3]x[224..256]|};
  {|titanx/laplacian2d:512x512xT128|advisor|tT16-tS3x192-thr256|0.0005139228516746892|};
  {|titanx/gradient2d:512x512xT128|minimize|tT16-tS3x192|0.00095028184437269912|1|1303|459|695|236|c8565f66f19cb9ba277b5f05e8ea8753|tT[16..16]-tS[3..3]x[192..192]|tT[10..12]-tS[3..3]x[288..320]|};
  {|titanx/gradient2d:512x512xT128|advisor|tT16-tS3x192-thr256|0.00095028184437269912|};
  {|gtx980/heat3d:96x96x96xT32|minimize|tT2-tS2x8x64|0.0022359870126410345|1|461|209|280|71|d6add20010ba52a0e47a9a0c85a1077b|tT[2..2]-tS[2..2]x[8..8]x[64..64]|tT[2..2]-tS[1..1]x[2..2]x[64..64]|};
  {|gtx980/heat3d:96x96x96xT32|advisor|tT2-tS2x8x64-thr256|0.0022359870126410345|};
  {|gtx980/laplacian3d:96x96x96xT32|minimize|tT2-tS2x8x64|0.0021524984709191154|1|461|207|280|73|cfd54059c69aa8408ba6672d2a2b32ef|tT[2..2]-tS[2..2]x[8..8]x[64..64]|tT[2..2]-tS[1..1]x[2..2]x[96..96]|};
  {|gtx980/laplacian3d:96x96x96xT32|advisor|tT2-tS2x8x64-thr256|0.0021524984709191154|};
  {|titanx/heat3d:96x96x96xT32|minimize|tT2-tS1x8x64|0.0016680608324905956|1|330|142|200|58|019a79677caf3d02c3ae1dc209230f25|tT[2..2]-tS[1..1]x[8..8]x[64..64]|tT[4..4]-tS[6..8]x[1..2]x[32..64]|};
  {|titanx/heat3d:96x96x96xT32|advisor|tT2-tS1x8x64-thr256|0.0016680608324905956|};
  {|titanx/laplacian3d:96x96x96xT32|minimize|tT2-tS1x8x64|0.0016052807748527722|1|330|142|200|58|9467cfdac62153d002ffc5d8a71f9c51|tT[2..2]-tS[1..1]x[8..8]x[64..64]|tT[4..4]-tS[6..8]x[1..2]x[32..64]|};
  {|titanx/laplacian3d:96x96x96xT32|advisor|tT2-tS1x8x64-thr256|0.0016052807748527722|};
  {|gtx980/jacobi1d:720896xT2560|minimize|tT32-tS96|0.035422287147814327|1|191|55|96|41|bbc7af94c3f802b0997cd8a206dd40bd|tT[32..32]-tS[96..96]|tT[60..60]-tS[96..96]|};
  {|gtx980/jacobi1d:720896xT2560|advisor|tT8-tS121-thr256|0.032268943154399751|};
  {|titanx/jacobi1d:2949120xT9728|minimize|tT32-tS96|0.40834140611552949|1|189|53|95|42|a372adea6f04f4ad2db82d53e5045ca5|tT[32..32]-tS[96..96]|tT[60..60]-tS[96..96]|};
  {|titanx/jacobi1d:2949120xT9728|advisor|tT8-tS121-thr256|0.36827445368002565|};
  {|gtx980/heat2d:1536x2816xT768|minimize|tT22-tS1x192|0.065539295477764187|1|3451|925|1930|1005|ee9739353758f46ab4f01d9b9afdebd9|tT[22..22]-tS[1..1]x[192..192]|tT[12..12]-tS[3..3]x[352..352]|};
  {|gtx980/heat2d:1536x2816xT768|advisor|tT22-tS1x192-thr256|0.065539295477764187|};
  {|titanx/laplacian2d:3072x1280xT2304|minimize|tT14-tS1x192|0.1182722506360878|1|3473|891|1948|1057|3364d349395e5e2370d3182591b3f0b1|tT[14..14]-tS[1..1]x[192..192]|tT[30..30]-tS[24..24]x[32..32]|};
  {|titanx/laplacian2d:3072x1280xT2304|advisor|tT14-tS1x192-thr256|0.1182722506360878|};
  {|titanx/gradient2d:1024x1792xT512-f64|minimize|tT16-tS3x64|0.023893615855441707|1|1397|554|813|259|c652ef3e8563c78de7a12dfeff23d486|tT[16..16]-tS[3..3]x[64..64]|tT[26..26]-tS[12..12]x[32..32]|};
  {|titanx/gradient2d:1024x1792xT512-f64|advisor|tT16-tS3x64-thr256|0.023893615855441707|};
  {|gtx980/jacobi2d_order2:2048x2048xT1280|minimize|tT10-tS6x160|0.16897628718789109|1|1688|451|957|506|059363ff4e7272a381f9575f47eb2306|tT[10..10]-tS[6..6]x[160..160]|tT[20..20]-tS[6..6]x[64..64]|};
  {|gtx980/jacobi2d_order2:2048x2048xT1280|advisor|tT10-tS6x160-thr256|0.16897628718789109|};
  {|titanx/advection2d:1792x4608xT512|minimize|tT32-tS3x64|0.041528836468458237|1|3290|1038|1842|804|ea5e5d52c091f50e15fc6f543cdcd2d1|tT[32..32]-tS[3..3]x[64..64]|tT[10..10]-tS[16..16]x[32..32]|};
  {|titanx/advection2d:1792x4608xT512|advisor|tT32-tS3x64-thr256|0.041528836468458237|};
  {|gtx980/heat3d_order2:224x320x288xT96|minimize|tT2-tS2x16x32|0.21110909783639376|1|290|168|207|39|c3af676a123d37b8fd9e6a39e7cbd00f|tT[2..2]-tS[2..2]x[16..16]x[32..32]|tT[2..2]-tS[1..1]x[1..1]x[160..160]|};
  {|gtx980/heat3d_order2:224x320x288xT96|advisor|tT2-tS5x8x32-thr256|0.19529218952458183|};
  {|titanx/jacobi3d:384x192x256xT160|minimize|tT2-tS3x6x96|0.15445548335598605|1|757|330|483|153|9d9b6c783c5291ff4a463d5f79d7c872|tT[2..2]-tS[3..3]x[6..6]x[96..96]|tT[4..4]-tS[1..1]x[1..1]x[160..160]|};
  {|titanx/jacobi3d:384x192x256xT160|advisor|tT2-tS3x6x96-thr256|0.15445548335598605|};
  {|gtx980/laplacian3d:320x320x192xT64-f64|minimize|tT2-tS4x8x32|0.084177087810005144|1|275|147|190|43|615165796c436f28a0500c82c8136ecb|tT[2..2]-tS[4..4]x[8..8]x[32..32]|tT[4..4]-tS[1..1]x[1..1]x[64..64]|};
  {|gtx980/laplacian3d:320x320x192xT64-f64|advisor|tT2-tS4x8x32-thr256|0.084177087810005144|};
]
