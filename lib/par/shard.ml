type slice = { off : int; len : int }

let plan ~records_per_shard n =
  if records_per_shard <= 0 then invalid_arg "Shard.plan: records_per_shard must be positive";
  if n <= 0 then [||]
  else begin
    let shards = (n + records_per_shard - 1) / records_per_shard in
    Array.init shards (fun i ->
        let off = i * records_per_shard in
        { off; len = min records_per_shard (n - off) })
  end
