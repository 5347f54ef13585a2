//! Reproduces paper Table 1: the evaluated processors.
//!
//! Usage: `cargo run -p pmevo-bench --bin table1`

use pmevo_bench::{selected_platforms, Args};
use pmevo_stats::Table;

fn main() {
    let args = Args::parse();
    let platforms = selected_platforms(&args);

    let mut table = Table::new(vec!["", "SKL", "ZEN", "A72"]);
    let get = |f: &dyn Fn(&pmevo_machine::Platform) -> String| -> Vec<String> {
        platforms.iter().map(f).collect()
    };
    let mut row = |label: &str, f: &dyn Fn(&pmevo_machine::Platform) -> String| {
        let mut cells = vec![label.to_string()];
        cells.extend(get(f));
        while cells.len() < 4 {
            cells.push(String::new());
        }
        table.row(cells);
    };
    row("Manufact.", &|p| p.info().manufacturer.clone());
    row("Processor", &|p| p.info().processor.clone());
    row("Microarch.", &|p| p.info().microarch.clone());
    row("# Ports", &|p| p.info().ports_desc.clone());
    row("Instr. Set", &|p| p.info().isa_name.clone());
    row("Clock Freq.", &|p| format!("{:.1} GHz", p.info().clock_ghz));
    row("# Forms", &|p| p.isa().len().to_string());
    row("Fetch width", &|p| p.fetch_width().to_string());
    row("Sched. window", &|p| p.window_size().to_string());

    println!("Table 1: evaluated (simulated) processors\n");
    println!("{table}");
    println!("Note: physical machines are replaced by cycle-level simulators");
    println!("with hidden ground-truth port mappings.");
}
